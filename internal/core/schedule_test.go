package core

import (
	"math/rand"
	"sync"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func seedGrid2D(g *grid.Grid2D, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}

// RunScheduled2D replaying a cached schedule must be bitwise identical
// to Run building the schedule per call, including on chained runs
// where the grid's Step parity is odd at the second call.
func TestRunScheduledMatchesRun(t *testing.T) {
	s := stencil.Heat2D
	n := []int{96, 80}
	cfg := DefaultConfig(n, s.Slopes)
	cfg.BT = 4
	cfg.Big = []int{24, 32}
	const steps = 11 // not a multiple of BT: exercises clamped windows

	pool := par.NewPool(3)
	defer pool.Close()

	ref := grid.NewGrid2D(n[0], n[1], 1, 1)
	seedGrid2D(ref, 42)
	if err := Run(ref.View(), stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := Run(ref.View(), stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	sched, err := NewSchedule(&cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	got := grid.NewGrid2D(n[0], n[1], 1, 1)
	seedGrid2D(got, 42)
	if err := RunScheduled2D(got, s, sched, pool); err != nil {
		t.Fatal(err)
	}
	if err := RunScheduled2D(got, s, sched, pool); err != nil {
		t.Fatal(err)
	}
	if got.Step != 2*steps {
		t.Fatalf("scheduled run advanced Step to %d, want %d", got.Step, 2*steps)
	}
	if r := verify.Grids2D(got, ref); !r.Equal {
		t.Fatal(r.Error("scheduled vs direct"))
	}
}

// A schedule must be immune to later mutation of the config it was
// built from.
func TestScheduleCopiesConfig(t *testing.T) {
	s := stencil.Heat1D
	cfg := DefaultConfig([]int{256}, s.Slopes)
	sched, err := NewSchedule(&cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	regionsBefore := len(sched.Regions())
	cfg.BT = 1
	cfg.Big[0] = 2
	cfg.N[0] = 16
	if got := len(sched.Regions()); got != regionsBefore {
		t.Fatalf("schedule changed after config mutation: %d regions, was %d", got, regionsBefore)
	}
	if sched.Config().N[0] != 256 {
		t.Fatalf("schedule config mutated: N=%v", sched.Config().N)
	}
}

func TestScheduleCacheHitsAndEviction(t *testing.T) {
	cache := NewScheduleCache(2)
	cfg := DefaultConfig([]int{128, 128}, []int{1, 1})

	a1, err := cache.Get(&cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.Get(&cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("second Get of the same shape returned a different schedule")
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats after 2 gets: hits=%d misses=%d, want 1/1", h, m)
	}

	// A different step count is a different schedule.
	b, err := cache.Get(&cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("different steps returned the same schedule")
	}

	// Third distinct shape evicts the oldest (FIFO, max 2).
	cfg2 := DefaultConfig([]int{64, 64}, []int{1, 1})
	if _, err := cache.Get(&cfg2, 8); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 2 {
		t.Fatalf("cache holds %d schedules, want 2", got)
	}
	// The original (cfg, 8) was evicted: this Get is a miss again.
	_, m0 := cache.Stats()
	if _, err := cache.Get(&cfg, 8); err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != m0+1 {
		t.Fatalf("re-Get of evicted shape was not a miss (misses %d -> %d)", m0, m)
	}
}

// Distinct coarsening vectors must not collide in the cache key.
func TestScheduleCacheKeyIncludesCoarsening(t *testing.T) {
	cache := NewScheduleCache(0)
	cfg := DefaultConfig([]int{128, 128}, []int{1, 1})
	a, err := cache.Get(&cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coarsen = Uniform(4)
	b, err := cache.Get(&cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("coarsened and uncoarsened configs shared a cache entry")
	}
	if a.Regions()[0].Group == b.Regions()[0].Group {
		t.Fatal("coarsened schedule has the same group factor as uncoarsened")
	}
}

func TestScheduleCacheRejectsInvalidConfig(t *testing.T) {
	cache := NewScheduleCache(0)
	cfg := Config{N: []int{64}, Slopes: []int{1}, BT: 8, Big: []int{4}} // Big < 2*BT*slope
	if _, err := cache.Get(&cfg, 8); err == nil {
		t.Fatal("invalid config was cached without error")
	}
	if cache.Len() != 0 {
		t.Fatal("invalid config left an entry in the cache")
	}
}

// Concurrent Gets of the same and different shapes must be safe and
// converge to one schedule per shape (run under -race in CI).
func TestScheduleCacheConcurrent(t *testing.T) {
	cache := NewScheduleCache(0)
	cfgA := DefaultConfig([]int{128, 128}, []int{1, 1})
	cfgB := DefaultConfig([]int{96, 96}, []int{1, 1})
	var wg sync.WaitGroup
	out := make([]*Schedule, 16)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := &cfgA
			if i%2 == 1 {
				cfg = &cfgB
			}
			s, err := cache.Get(cfg, 8)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = s
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(out); i++ {
		if out[i] != out[i%2] {
			t.Fatalf("goroutine %d got a different schedule than goroutine %d", i, i%2)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d schedules, want 2", cache.Len())
	}
}
