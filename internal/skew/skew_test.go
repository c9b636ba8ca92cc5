package skew

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func TestRun1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		for _, steps := range []int{1, 6, 17} {
			cfg := Config{BT: 4, BX: []int{16}}
			g := grid.NewGrid1D(80, s.Slopes[0])
			rng := rand.New(rand.NewSource(1))
			g.Fill(func(x int) float64 { return rng.Float64() })
			g.SetBoundary(0.5)
			ref := g.Clone()
			if err := Run(g.View(), s, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run1D(ref, s, steps, nil)
			if r := verify.Grids1D(g, ref); !r.Equal {
				t.Fatalf("%s steps=%d: %v", s.Name, steps, r.Error("skew-1d"))
			}
		}
	}
}

func TestRun2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
		cfg := Config{BT: 3, BX: []int{9, 11}}
		g := grid.NewGrid2D(30, 26, 1, 1)
		rng := rand.New(rand.NewSource(2))
		if s == stencil.Life {
			g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
		} else {
			g.Fill(func(x, y int) float64 { return rng.Float64() })
		}
		g.SetBoundary(0)
		ref := g.Clone()
		if err := Run(g.View(), s, 8, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run2D(ref, s, 8, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("%s: %v", s.Name, r.Error("skew-2d"))
		}
	}
}

func TestRun3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
		cfg := Config{BT: 2, BX: []int{6, 7, 8}}
		g := grid.NewGrid3D(14, 12, 16, 1, 1, 1)
		rng := rand.New(rand.NewSource(3))
		g.Fill(func(x, y, z int) float64 { return rng.Float64() })
		g.SetBoundary(0.25)
		ref := g.Clone()
		if err := Run(g.View(), s, 5, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run3D(ref, s, 5, nil)
		if r := verify.Grids3D(g, ref); !r.Equal {
			t.Fatalf("%s: %v", s.Name, r.Error("skew-3d"))
		}
	}
}

func TestFuzzAgainstNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(42))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		cfg := Config{BT: 1 + rng.Intn(5), BX: []int{2 + rng.Intn(12), 2 + rng.Intn(12)}}
		nx, ny := 4+rng.Intn(28), 4+rng.Intn(28)
		steps := 1 + rng.Intn(12)
		g := grid.NewGrid2D(nx, ny, 1, 1)
		g.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := g.Clone()
		if err := Run(g.View(), stencil.Heat2D, steps, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run2D(ref, stencil.Heat2D, steps, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("iter %d cfg=%+v n=%dx%d steps=%d: %v", it, cfg, nx, ny, steps, r.Error("fuzz"))
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	if err := (&Config{BT: 0, BX: []int{4}}).Validate(1); err == nil {
		t.Error("BT=0 accepted")
	}
	if err := (&Config{BT: 2, BX: []int{4}}).Validate(2); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := (&Config{BT: 2, BX: []int{0, 4}}).Validate(2); err == nil {
		t.Error("BX=0 accepted")
	}
	pool := par.NewPool(1)
	defer pool.Close()
	g := grid.NewGrid1D(10, 1)
	if err := Run(g.View(), stencil.Heat2D, 2, Config{BT: 1, BX: []int{4}}, pool); err == nil {
		t.Error("2D kernel accepted on a 1D grid")
	}
}
