package dist

import (
	"math/rand"
	"sync"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// A rank runs core's walker and box bodies, so on every kernel tier,
// at 1-3 ranks with either exchange, the gathered grid must be bitwise
// the one core's shared-memory executor computes with the same config.
// The grids cover a padded 2D row stride (1030 cells) and an odd 3D
// pencil (17 cells), where the vector kernels run a masked lane tail.
func TestRankMatchesCoreOnEveryTier(t *testing.T) {
	prev := core.KernelPath()
	defer core.SetKernelPath(prev)

	rng := rand.New(rand.NewSource(3))
	fill2 := func(nx, ny int) *grid.Grid2D {
		g := grid.NewGrid2D(nx, ny, 1, 1)
		g.Fill(func(x, y int) float64 { return rng.Float64() })
		g.SetBoundary(0.5)
		return g
	}
	g3 := grid.NewGrid3D(48, 14, 17, 1, 1, 1)
	g3.Fill(func(x, y, z int) float64 { return rng.Float64() })
	g3.SetBoundary(0.25)
	cases := []struct {
		name    string
		cfg     *core.Config
		spec    *stencil.Spec
		initial any
	}{
		{"heat-2d 96x40", testConfig(96, 40), stencil.Heat2D, fill2(96, 40)},
		{"heat-2d 48x1030", testConfig(48, 1030), stencil.Heat2D, fill2(48, 1030)},
		{"heat-3d 48x14x17", &core.Config{N: []int{48, 14, 17}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 8}, Merge: true},
			stencil.Heat3D, g3},
	}
	const steps = 7
	for _, path := range []string{"row", "block", "simd"} {
		if err := core.SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			ref := cloneGrid(c.initial)
			runCore(t, ref, c.cfg, c.spec, steps)
			for nranks := 1; nranks <= 3; nranks++ {
				for _, overlap := range []bool{false, true} {
					got := cloneGrid(c.initial)
					runSlabCluster(t, nranks, c.cfg, c.spec, got, steps, overlap)
					if r := equalGrids(got, ref); !r.Equal {
						t.Fatalf("%s %s nranks=%d overlap=%v: %v", path, c.name, nranks, overlap, r.Error("rank-vs-core"))
					}
				}
			}
		}
	}
}

// runSlabCluster scatters g to nranks in-process ranks, runs them and
// gathers their territories back into g over the transport.
func runSlabCluster(t *testing.T, nranks int, cfg *core.Config, spec *stencil.Spec, g any, steps int, overlap bool) {
	t.Helper()
	ts := LocalCluster(nranks)
	ranks := make([]*Rank, nranks)
	for i := range ranks {
		r, err := NewRank(i, nranks, ts[i], cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.SetOverlap(overlap)
		if err := r.Scatter(g); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	var wg sync.WaitGroup
	errs := make([]error, nranks)
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = ranks[i].Run(steps); errs[i] == nil {
				errs[i] = ranks[i].GatherTo(0, g)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// runCore advances g by steps steps of spec with core's shared-memory
// executor on one worker.
func runCore(t *testing.T, g any, cfg *core.Config, spec *stencil.Spec, steps int) {
	t.Helper()
	sched, err := core.NewSchedule(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	switch g := g.(type) {
	case *grid.Grid2D:
		err = core.Run2D(g, stencil.OneStage(spec), sched, pool, nil, nil)
	case *grid.Grid3D:
		err = core.Run3D(g, stencil.OneStage(spec), sched, pool, nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func cloneGrid(g any) any {
	if g, ok := g.(*grid.Grid2D); ok {
		return g.Clone()
	}
	return g.(*grid.Grid3D).Clone()
}

func equalGrids(got, ref any) verify.Result {
	if g, ok := got.(*grid.Grid2D); ok {
		return verify.Grids2D(g, ref.(*grid.Grid2D))
	}
	return verify.Grids3D(got.(*grid.Grid3D), ref.(*grid.Grid3D))
}
