package d35

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func TestRun3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
		for _, steps := range []int{1, 4, 7} {
			cfg := Config{BT: 3, TY: 7, TZ: 9}
			g := grid.NewGrid3D(15, 17, 19, 1, 1, 1)
			rng := rand.New(rand.NewSource(61))
			g.Fill(func(x, y, z int) float64 { return rng.Float64() })
			g.SetBoundary(0.5)
			ref := g.Clone()
			if err := Run(g.View(), s, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run(ref.View(), stencil.OneStage(s), steps, nil, nil)
			if r := verify.Grids3D(g, ref); !r.Equal {
				t.Fatalf("%s steps=%d: %v", s.Name, steps, r.Error("3.5d"))
			}
		}
	}
}

func TestFuzzAgainstNaive(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(62))
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for it := 0; it < iters; it++ {
		cfg := Config{BT: 1 + rng.Intn(4), TY: 2 + rng.Intn(10), TZ: 2 + rng.Intn(10)}
		nx, ny, nz := 3+rng.Intn(16), 3+rng.Intn(16), 3+rng.Intn(16)
		steps := 1 + rng.Intn(9)
		g := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
		g.Fill(func(x, y, z int) float64 { return rng.Float64() })
		ref := g.Clone()
		if err := Run(g.View(), stencil.Heat3D, steps, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run(ref.View(), stencil.OneStage(stencil.Heat3D), steps, nil, nil)
		if r := verify.Grids3D(g, ref); !r.Equal {
			t.Fatalf("iter %d cfg=%+v %dx%dx%d steps=%d: %v", it, cfg, nx, ny, nz, steps, r.Error("fuzz"))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	g := grid.NewGrid3D(8, 8, 8, 1, 1, 1)
	if err := Run(g.View(), stencil.Heat3D, 2, Config{BT: 0, TY: 4, TZ: 4}, pool); err == nil {
		t.Error("BT=0 accepted")
	}
	if err := Run(g.View(), stencil.Heat3D, 2, Config{BT: 2, TY: 0, TZ: 4}, pool); err == nil {
		t.Error("TY=0 accepted")
	}
	if err := Run(g.View(), stencil.Heat2D, 2, Config{BT: 2, TY: 4, TZ: 4}, pool); err == nil {
		t.Error("2D kernel accepted")
	}
	if err := Run(grid.NewGrid2D(8, 8, 1, 1).View(), stencil.Heat2D, 2, Config{BT: 2, TY: 4, TZ: 4}, pool); err == nil {
		t.Error("2D grid accepted")
	}
}
