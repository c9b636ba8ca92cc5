package dist

import (
	"math/rand"
	"sync"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func runCluster3D(t *testing.T, nranks int, cfg *core.Config, spec *stencil.Spec, initial *grid.Grid3D, steps int) *grid.Grid3D {
	t.Helper()
	ts := LocalCluster(nranks)
	ranks := make([]*Rank, nranks)
	for i := 0; i < nranks; i++ {
		r, err := NewRank(i, nranks, ts[i], cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scatter(initial); err != nil {
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
			errs[i] = ranks[i].Run(steps)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	out := grid.NewGrid3D(cfg.N[0], cfg.N[1], cfg.N[2], initial.HX, initial.HY, initial.HZ)
	out.Step = initial.Step + steps
	for _, r := range ranks {
		r.Territory(out)
	}
	return out
}

func TestDistributed3DMatchesSingleRank(t *testing.T) {
	for _, nranks := range []int{1, 2, 3} {
		for _, spec := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
			nx, ny, nz := 48, 14, 16
			cfg := &core.Config{N: []int{nx, ny, nz}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 8}, Merge: true}
			initial := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
			rng := rand.New(rand.NewSource(int64(nranks)))
			initial.Fill(func(x, y, z int) float64 { return rng.Float64() })
			initial.SetBoundary(0.25)

			ref := initial.Clone()
			naive.Run(ref.View(), stencil.OneStage(spec), 7, nil, nil)

			got := runCluster3D(t, nranks, cfg, spec, initial, 7)
			if r := verify.Grids3D(got, ref); !r.Equal {
				t.Fatalf("nranks=%d %s: %v", nranks, spec.Name, r.Error("distributed-3d"))
			}
		}
	}
}

func TestDistributed3DVarCoef(t *testing.T) {
	// A variable-coefficient kernel across ranks: the conductivity
	// field must be replicated per rank with the *local* layout, so
	// build it per rank — here we verify the plumbing works by running
	// the constant-coefficient equivalent through the varcoef kernel.
	nx, ny, nz := 40, 12, 12
	cfg := &core.Config{N: []int{nx, ny, nz}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 6}, Merge: true}
	initial := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
	rng := rand.New(rand.NewSource(5))
	initial.Fill(func(x, y, z int) float64 { return rng.Float64() })

	// Reference with a global coefficient field.
	kapGlobal := make([]float64, len(initial.Buf[0]))
	for i := range kapGlobal {
		kapGlobal[i] = 1
	}
	ref := initial.Clone()
	naive.Run(ref.View(), stencil.OneStage(stencil.NewVarCoef3D(kapGlobal)), 6, nil, nil)

	// Distributed: each rank needs a kappa slice in its local layout.
	nranks := 2
	ts := LocalCluster(nranks)
	ranks := make([]*Rank, nranks)
	for i := 0; i < nranks; i++ {
		// Build the rank first to learn its local shape, then swap in a
		// spec whose kappa matches that shape.
		r, err := NewRank(i, nranks, ts[i], cfg, stencil.Heat3D, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		kap := make([]float64, len(r.local.Buf[0]))
		for k := range kap {
			kap[k] = 1
		}
		r.spec = stencil.NewVarCoef3D(kap)
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _ = ranks[i].Run(6) }(i)
	}
	wg.Wait()
	got := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
	got.Step = 6
	for _, r := range ranks {
		r.Territory(got)
	}
	if r := verify.Grids3D(got, ref); !r.Equal {
		t.Fatal(r.Error("distributed-3d-varcoef"))
	}
}
