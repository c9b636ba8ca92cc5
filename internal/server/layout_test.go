package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
)

// A job resolves its options to exactly the config core.NewConfig
// builds for one stencil stage, so a time_tile-only job tiles like a
// TimeTile-only Engine run, clamps included, a 2D job gets L1 tiles,
// and explicit block, no_merge and coarsen_per_stage still win.
func TestJobConfigIsCoreRule(t *testing.T) {
	s := New(Config{Engines: 1, ThreadsPerEngine: 1})
	defer s.Close()
	cases := []JobRequest{
		{Kernel: "heat-1d", N: []int{1000}, Options: JobOptions{TimeTile: 4}},
		{Kernel: "heat-2d", N: []int{1024, 1024}, Options: JobOptions{TimeTile: 8}},
		{Kernel: "heat-2d", N: []int{40, 25}, Options: JobOptions{TimeTile: 4}},
		{Kernel: "heat-2d", N: []int{40, 80}, Options: JobOptions{TimeTile: 4}},
		{Kernel: "star", Order: 2, N: []int{64, 64}, Options: JobOptions{TimeTile: 2}},
		{Kernel: "heat-3d", N: []int{64, 64, 64}, Options: JobOptions{TimeTile: 2}},
		{Kernel: "heat-3d", N: []int{16, 16, 16}, Options: JobOptions{TimeTile: 2}},
		{Kernel: "heat-2d", N: []int{128, 128}},
		{Kernel: "heat-2d", N: []int{64, 64}, Options: JobOptions{TimeTile: 4, Block: []int{10, 12}}},
		{Kernel: "heat-2d", N: []int{64, 64}, Options: JobOptions{TimeTile: 2, NoMerge: true, CoarsenPerStage: []int{2, 1, 3}}},
	}
	for _, req := range cases {
		req.Steps = 8
		spec, gen, err := s.resolve(&req)
		if err != nil {
			t.Fatalf("%v: %v", req, err)
		}
		j := &job{req: req, spec: spec, gen: gen}
		if err := s.prepare(j); err != nil {
			t.Fatalf("%v: %v", req, err)
		}
		var slopes []int
		if spec != nil {
			slopes = spec.Slopes
		} else {
			slopes = gen.Slopes
		}
		o := req.Options
		want := core.NewConfig(req.N, slopes, 1, o.TimeTile, o.Block, o.NoMerge, o.CoarsenPerStage)
		got := j.sched.Config()
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s %v %+v: job config %+v, want %+v", req.Kernel, req.N, o, *got, want)
		}
		if len(req.N) == 2 && req.N[0] >= 32 && req.N[1] >= 64 && o.Block == nil && !reflect.DeepEqual(got.Big, []int{32, 64}) {
			t.Errorf("%s %v %+v: Big %v, want the 32x64 L1 tile", req.Kernel, req.N, o, got.Big)
		}
	}
}

// A values job on a grid wide enough for padded rows returns exactly
// the interior: one row of NY values per x, bitwise the naive result.
func TestServeValuesPaddedRows(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 2})
	const nx, ny, steps, seed = 24, 1030, 7, 3
	resp, body := postJob(t, s, &JobRequest{
		Kernel: "heat-2d", N: []int{nx, ny}, Steps: steps, Seed: seed, Values: true,
		Options: JobOptions{TimeTile: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ref := grid.NewGrid2D(nx, ny, 1, 1)
	if ref.SY == ny+2 {
		t.Fatalf("SY=%d, want a padded stride", ref.SY)
	}
	SeedGrid2D(ref, "heat-2d", seed, DefaultBoundary("heat-2d"))
	naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, nil, nil)

	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Event string    `json:"event"`
			X     int       `json:"x"`
			Row   []float64 `json:"row"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event: %v", err)
		}
		if ev.Event != "values" {
			continue
		}
		if ev.X != rows || len(ev.Row) != ny {
			t.Fatalf("values event %d: x=%d with %d values, want x=%d with %d", rows, ev.X, len(ev.Row), rows, ny)
		}
		for y, v := range ev.Row {
			if want := ref.At(ev.X, y); v != want {
				t.Fatalf("value (%d, %d) = %v, naive %v", ev.X, y, v, want)
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != nx {
		t.Fatalf("streamed %d rows, want %d", rows, nx)
	}
}
