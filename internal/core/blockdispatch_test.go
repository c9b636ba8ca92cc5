package core

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// Every executor must produce bitwise-identical results with block
// dispatch on and off — the block kernels are a pure fast path.

func TestBlockDispatchBitwise1D(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(3)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		slope := s.Slopes[0]
		cfg := Config{N: []int{97}, Slopes: s.Slopes, BT: 4, Big: []int{16 * slope}, Merge: true}
		a := grid.NewGrid1D(97, slope)
		fill1D(a, 41)
		b := a.Clone()
		SetKernelPath("block")
		if err := Run1D(a, stencil.OneStage(s), mustSchedule(t, &cfg, 13), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		SetKernelPath("row")
		if err := Run1D(b, stencil.OneStage(s), mustSchedule(t, &cfg, 13), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids1D(a, b); !r.Equal {
			t.Fatal(r.Error(s.Name + " block-vs-row"))
		}
	}
}

func TestBlockDispatchBitwise2D(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(3)
	defer pool.Close()
	kappa := make([]float64, (37+2)*(41+2))
	rng := rand.New(rand.NewSource(42))
	for i := range kappa {
		kappa[i] = rng.Float64()
	}
	specs := []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life, stencil.NewVarCoef2D(kappa)}
	for _, s := range specs {
		cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: true}
		a := grid.NewGrid2D(37, 41, 1, 1)
		if s == stencil.Life {
			rng := rand.New(rand.NewSource(43))
			a.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
			a.SetBoundary(0)
		} else {
			fill2D(a, 42)
		}
		b := a.Clone()
		SetKernelPath("block")
		if err := Run2D(a, stencil.OneStage(s), mustSchedule(t, &cfg, 11), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		SetKernelPath("row")
		if err := Run2D(b, stencil.OneStage(s), mustSchedule(t, &cfg, 11), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids2D(a, b); !r.Equal {
			t.Fatal(r.Error(s.Name + " block-vs-row"))
		}
	}
}

func TestBlockDispatchBitwise3D(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(3)
	defer pool.Close()
	kappa := make([]float64, (18+2)*(15+2)*(20+2))
	rng := rand.New(rand.NewSource(44))
	for i := range kappa {
		kappa[i] = rng.Float64()
	}
	specs := []*stencil.Spec{stencil.Heat3D, stencil.Box3D27, stencil.NewVarCoef3D(kappa)}
	for _, s := range specs {
		cfg := Config{N: []int{18, 15, 20}, Slopes: s.Slopes, BT: 2, Big: []int{6, 5, 8}, Merge: true}
		a := grid.NewGrid3D(18, 15, 20, 1, 1, 1)
		fill3D(a, 43)
		b := a.Clone()
		SetKernelPath("block")
		if err := Run3D(a, stencil.OneStage(s), mustSchedule(t, &cfg, 7), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		SetKernelPath("row")
		if err := Run3D(b, stencil.OneStage(s), mustSchedule(t, &cfg, 7), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids3D(a, b); !r.Equal {
			t.Fatal(r.Error(s.Name + " block-vs-row"))
		}
	}
}

// The vector tier runs one whole-box assembly call per visit, with a
// masked final quad on every row or pencil, while the naive oracle
// resolves the same tier; this is the executor-level check where the
// vector kernels meet the row kernels. Heat-3d runs on the Fig 11a
// tiling (BT 6, Big 24³, merged) over a grid no extent of which is a
// multiple of four, heat-2d on the §4.2 shape over an odd-sized grid,
// both on two workers.
func TestSIMDDispatchMatchesRow3D(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(2)
	defer pool.Close()
	cfg := Config{N: []int{53, 50, 47}, Slopes: stencil.Heat3D.Slopes, BT: 6, Big: []int{24, 24, 24}, Merge: true}
	a := grid.NewGrid3D(53, 50, 47, 1, 1, 1)
	fill3D(a, 46)
	b := a.Clone()
	for _, run := range []struct {
		path string
		g    *grid.Grid3D
	}{{"simd", a}, {"row", b}} {
		if err := SetKernelPath(run.path); err != nil {
			t.Fatal(err)
		}
		if err := Run3D(run.g, stencil.OneStage(stencil.Heat3D), mustSchedule(t, &cfg, 13), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r := verify.Grids3D(a, b); !r.Equal {
		t.Fatal(r.Error("heat-3d simd-vs-row"))
	}
}

func TestSIMDDispatchMatchesRow2D(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(2)
	defer pool.Close()
	n := []int{203, 157}
	cfg := NewConfig(n, stencil.Heat2D.Slopes, 1, 8, nil, false, nil)
	a := grid.NewGrid2D(n[0], n[1], 1, 1)
	fill2D(a, 47)
	b := a.Clone()
	for _, run := range []struct {
		path string
		g    *grid.Grid2D
	}{{"simd", a}, {"row", b}} {
		if err := SetKernelPath(run.path); err != nil {
			t.Fatal(err)
		}
		if err := Run2D(run.g, stencil.OneStage(stencil.Heat2D), mustSchedule(t, &cfg, 19), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r := verify.Grids2D(a, b); !r.Equal {
		t.Fatal(r.Error("heat-2d simd-vs-row"))
	}
}

// A periodic RunND's interior fast path (flat offsets, no wrap) must
// agree bitwise with the always-wrap loop the row path takes.
func TestBlockDispatchBitwisePeriodic(t *testing.T) {
	defer SetKernelPath(KernelPath())
	pool := par.NewPool(3)
	defer pool.Close()
	cases := []struct {
		gs  *stencil.Generic
		cfg Config
	}{
		{stencil.NewStar(1, 1), Config{N: []int{24}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true}},
		{stencil.NewStar(2, 1), Config{N: []int{24, 24}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}},
		{stencil.NewBox(2, 1), Config{N: []int{24, 24}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}},
		{stencil.NewStar(3, 1), Config{N: []int{12, 12, 12}, Slopes: []int{1, 1, 1}, BT: 1, Big: []int{4, 4, 4}, Merge: true}},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(45))
		halo := make([]int, tc.gs.Dims)
		for k := range halo {
			halo[k] = tc.gs.Slopes[k]
		}
		a := grid.NewNDGrid(tc.cfg.N, halo)
		a.Fill(func(c []int) float64 { return rng.Float64() })
		b := grid.NewNDGrid(tc.cfg.N, halo)
		p := make([]int, tc.gs.Dims)
		forEachPoint(tc.cfg.N, p, func() { b.Set(p, a.At(p)) })

		sched := periodicSchedule(t, tc.cfg, 9)
		SetKernelPath("block")
		if err := RunND(a, tc.gs, sched, pool, nil); err != nil {
			t.Fatal(err)
		}
		SetKernelPath("row")
		if err := RunND(b, tc.gs, sched, pool, nil); err != nil {
			t.Fatal(err)
		}
		forEachPoint(tc.cfg.N, p, func() {
			if a.At(p) != b.At(p) {
				t.Fatalf("%s: periodic fast-path mismatch at %v: %v vs %v", tc.gs.Name, p, a.At(p), b.At(p))
			}
		})
	}
}

// forEachPoint walks the box [0, n) in odometer order, mutating p.
func forEachPoint(n, p []int, f func()) {
	for k := range p {
		p[k] = 0
	}
	for {
		f()
		k := len(p) - 1
		for ; k >= 0; k-- {
			p[k]++
			if p[k] < n[k] {
				break
			}
			p[k] = 0
		}
		if k < 0 {
			return
		}
	}
}
