package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
)

// Masked and unmasked runs of the same simulation are different
// results; the deterministic result cache must keep them apart.
func TestResultKeyMaskIdentity(t *testing.T) {
	base := JobRequest{Kernel: "heat-2d", N: []int{32, 32}, Steps: 5, Seed: 3}
	unmasked := resultKey(&base, 0, 0)
	l := base
	l.Mask = "lshape"
	o := base
	o.Mask = "obstacle"
	lk, ok := resultKey(&l, 0, 0), resultKey(&o, 0, 0)
	if unmasked == lk || unmasked == ok || lk == ok {
		t.Fatalf("mask shapes collide: %q %q %q", unmasked, lk, ok)
	}
	l2 := base
	l2.Mask = "lshape"
	if resultKey(&l2, 0, 0) != lk {
		t.Fatal("equal masked requests produced different keys")
	}
	// Fields irrelevant to the simulation must not enter the key.
	l3 := l
	l3.Tenant = "someone-else"
	l3.Options = JobOptions{TimeTile: 2}
	if resultKey(&l3, 0, 0) != lk {
		t.Fatal("tenant/options leaked into the result key")
	}
}

// A masked job over HTTP must reproduce the masked naive reference
// bitwise, and report the active-set update count.
func TestServeMaskedChecksumMatchesNaive(t *testing.T) {
	s := testServer(t, Config{Engines: 2, ThreadsPerEngine: 2})

	const n, steps, seed = 64, 9, 5
	resp, body := postJob(t, s, &JobRequest{
		Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed, Mask: "lshape",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result %q: %v", body, err)
	}

	m, err := grid.NamedMask("lshape", []int{n, n})
	if err != nil {
		t.Fatal(err)
	}
	ref := grid.NewGrid2D(n, n, 1, 1)
	SeedGrid2D(ref, "heat-2d", seed, DefaultBoundary("heat-2d"))
	if err := naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, nil, m); err != nil {
		t.Fatal(err)
	}
	if want := Checksum2D(ref); res.Checksum != want {
		t.Fatalf("served masked checksum %v != naive reference %v", res.Checksum, want)
	}
	if want := int64(m.ActiveCount()) * steps; res.Updates != want {
		t.Fatalf("Updates = %d, want active*steps = %d", res.Updates, want)
	}

	// The same job unmasked must produce a different checksum (the mask
	// froze cells the unmasked run updates) — and must not be served
	// from the masked job's cache entry.
	resp2, body2 := postJob(t, s, &JobRequest{
		Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var res2 JobResult
	if err := json.Unmarshal(body2, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("unmasked job was served from the masked job's cache entry")
	}
	if res2.Checksum == res.Checksum {
		t.Fatal("masked and unmasked runs agree; the mask did nothing")
	}

	// An exact masked repeat IS a cache hit, with the same checksum.
	resp3, body3 := postJob(t, s, &JobRequest{
		Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed, Mask: "lshape",
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp3.StatusCode, body3)
	}
	var res3 JobResult
	if err := json.Unmarshal(body3, &res3); err != nil {
		t.Fatal(err)
	}
	if !res3.Cached || res3.Checksum != res.Checksum {
		t.Fatalf("masked repeat: cached=%v checksum=%v, want cached hit of %v",
			res3.Cached, res3.Checksum, res.Checksum)
	}
}

// values:true masked jobs must execute every time — the grid is not
// cached, only checksums are — and the streamed rows must show the
// frozen inactive cells.
func TestServeMaskedValuesNeverCached(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})
	const n, steps, seed = 24, 6, 2
	req := &JobRequest{
		Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
		Mask: "obstacle", Values: true,
	}
	for round := 0; round < 2; round++ {
		resp, body := postJob(t, s, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		var res *JobResult
		rows := 0
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `"event":"result"`) || strings.Contains(line, `"event": "result"`) {
				var ev struct {
					Result JobResult `json:"result"`
				}
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("round %d: bad result line %q: %v", round, line, err)
				}
				res = &ev.Result
			}
			if strings.Contains(line, `"event":"values"`) || strings.Contains(line, `"event": "values"`) {
				rows++
			}
		}
		if res == nil {
			t.Fatalf("round %d: no result event in %s", round, body)
		}
		// Round 0 populated the checksum cache; round 1 must still run
		// (values are never cached) — Cached false both times.
		if res.Cached {
			t.Fatalf("round %d: masked values job served from cache", round)
		}
		if rows != n {
			t.Fatalf("round %d: streamed %d value rows, want %d", round, rows, n)
		}
	}
}

// Masks ride the specialised executors only: generic star/box jobs and
// unknown mask names are admission failures, not engine errors.
func TestServeMaskRejections(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})
	cases := []JobRequest{
		{Kernel: "star", N: []int{32, 32}, Steps: 3, Mask: "lshape"},
		{Kernel: "box", N: []int{32}, Steps: 3, Order: 2, Mask: "obstacle"},
		{Kernel: "heat-2d", N: []int{32, 32}, Steps: 3, Mask: "donut"},
	}
	for i, req := range cases {
		resp, body := postJob(t, s, &req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (want 400): %s", i, resp.StatusCode, body)
		}
	}
}
