package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
)

// Two masked jobs of one shape admitted at once share one finalized
// mask, and both still match the masked naive reference bitwise.
func TestConcurrentMaskedJobsShareMask(t *testing.T) {
	s := testServer(t, Config{Engines: 2, ThreadsPerEngine: 2, ResultCacheSize: -1})
	const n, steps = 61, 11
	dims := []int{n, n}

	// Admission: concurrent prepares resolve to the same *Mask.
	jobs := make([]*job, 2)
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := JobRequest{Kernel: "heat-2d", N: dims, Steps: steps, Mask: "obstacle"}
			spec, gen, err := s.resolve(&req)
			if err != nil {
				errs[i] = err
				return
			}
			jobs[i] = &job{req: req, spec: spec, gen: gen}
			errs[i] = s.prepare(jobs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if jobs[0].mask == nil || jobs[0].mask != jobs[1].mask {
		t.Fatalf("concurrent prepares built separate masks: %p, %p", jobs[0].mask, jobs[1].mask)
	}

	// Execution: two concurrent HTTP jobs with different seeds run on
	// the shared mask and both match naive.
	seeds := []int64{3, 4}
	sums := make([]float64, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			body, _ := json.Marshal(&JobRequest{Kernel: "heat-2d", N: dims, Steps: steps, Seed: seed, Mask: "lshape"})
			resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var res JobResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %v", resp.StatusCode, err)
				return
			}
			sums[i] = res.Checksum
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	shared, err := s.masks.get("lshape", dims)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.masks.len(); got != 2 {
		t.Fatalf("mask cache holds %d entries, want 2 (obstacle and lshape)", got)
	}
	ref, err := grid.NamedMask("lshape", dims)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		g := grid.NewGrid2D(n, n, 1, 1)
		SeedGrid2D(g, "heat-2d", seed, DefaultBoundary("heat-2d"))
		if err := naive.Run(g.View(), stencil.OneStage(stencil.Heat2D), steps, nil, ref); err != nil {
			t.Fatal(err)
		}
		if want := Checksum2D(g); sums[i] != want {
			t.Fatalf("seed %d: served checksum %v, naive %v", seed, sums[i], want)
		}
	}
	if shared.ActiveCount() != ref.ActiveCount() {
		t.Fatalf("cached mask has %d active points, want %d", shared.ActiveCount(), ref.ActiveCount())
	}
}

// The mask cache stays within its entry and point bounds, evicting
// least recently used masks first, builds oversized masks per call and
// keeps no entry for an unknown name.
func TestMaskCacheBounds(t *testing.T) {
	c := newMaskCache()
	first, err := c.get("lshape", []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maskCacheEntries+4; i++ {
		if i == maskCacheEntries/2 {
			// Refresh the first mask so the LRU keeps it.
			if m, _ := c.get("lshape", []int{8, 8}); m != first {
				t.Fatal("cache hit returned a different mask")
			}
		}
		if _, err := c.get("obstacle", []int{8, 8 + i}); err != nil {
			t.Fatal(err)
		}
		if c.len() > maskCacheEntries {
			t.Fatalf("%d entries, bound %d", c.len(), maskCacheEntries)
		}
	}
	if m, _ := c.get("lshape", []int{8, 8}); m != first {
		t.Fatal("recently used mask was evicted")
	}
	if _, err := c.get("obstacle", []int{8, 9}); err != nil {
		t.Fatal(err)
	}
	if c.points > maskCachePoints {
		t.Fatalf("%d cached points, bound %d", c.points, maskCachePoints)
	}

	before := c.len()
	big := []int{maskCachePoints/1024 + 1, 1024}
	a, err := c.get("obstacle", big)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.get("obstacle", big)
	if a == b || c.len() != before {
		t.Fatalf("oversized mask was cached (shared=%v, entries %d → %d)", a == b, before, c.len())
	}
	if _, err := c.get("bogus", []int{8, 8}); err == nil {
		t.Fatal("unknown mask name accepted")
	}
	// A name that spells a cached key's name and extents together is
	// still an unknown name, not a hit.
	if _, err := c.get("lshape,8", []int{8}); err == nil {
		t.Fatal(`"lshape,8" at [8] resolved to a cached mask`)
	}
	if c.len() != before {
		t.Fatalf("unknown mask name left an entry (%d → %d)", before, c.len())
	}

	// The point bound evicts even below the entry bound.
	c = newMaskCache()
	half := []int{maskCachePoints / 2 / 512, 512}
	for i := 0; i < 3; i++ {
		half[1] = 512 + i
		if _, err := c.get("lshape", half); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 1 || c.points > maskCachePoints {
		t.Fatalf("%d entries, %d points after three half-bound masks, want 1 entry within %d", c.len(), c.points, maskCachePoints)
	}
}
