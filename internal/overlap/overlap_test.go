package overlap

import (
	"math"
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func TestRun2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
		for _, steps := range []int{1, 5, 12} {
			cfg := Config{BT: 3, BX: []int{11, 9}}
			g := grid.NewGrid2D(37, 31, 1, 1)
			rng := rand.New(rand.NewSource(3))
			if s == stencil.Life {
				g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
			} else {
				g.Fill(func(x, y int) float64 { return rng.Float64() })
			}
			g.SetBoundary(0.5)
			ref := g.Clone()
			if err := Run(g.View(), s, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run(ref.View(), stencil.OneStage(s), steps, nil, nil)
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("%s steps=%d: %v", s.Name, steps, r.Error("overlap-2d"))
			}
		}
	}
}

func TestFuzzAgainstNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(44))
	iters := 25
	if testing.Short() {
		iters = 6
	}
	for it := 0; it < iters; it++ {
		cfg := Config{BT: 1 + rng.Intn(4), BX: []int{2 + rng.Intn(14), 2 + rng.Intn(14)}}
		nx, ny := 4+rng.Intn(40), 4+rng.Intn(40)
		steps := 1 + rng.Intn(14)
		g := grid.NewGrid2D(nx, ny, 1, 1)
		g.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := g.Clone()
		if err := Run(g.View(), stencil.Heat2D, steps, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, nil, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("iter %d cfg=%+v %dx%d steps=%d: %v", it, cfg, nx, ny, steps, r.Error("fuzz"))
		}
	}
}

// The redundancy model: for BT=1 there is no redundant work; the
// factor grows with BT and shrinks with BX, the trade-off the paper's
// critique of overlapped tiling rests on.
func TestRedundancyFactor(t *testing.T) {
	slopes := []int{1, 1}
	one := Config{BT: 1, BX: []int{16, 16}}
	if got := one.RedundancyFactor(slopes); math.Abs(got-1) > 1e-12 {
		t.Fatalf("BT=1 redundancy = %v, want 1", got)
	}
	small := Config{BT: 8, BX: []int{64, 64}}
	big := Config{BT: 8, BX: []int{16, 16}}
	if small.RedundancyFactor(slopes) >= big.RedundancyFactor(slopes) {
		t.Fatal("larger tiles should reduce redundancy")
	}
	shallow := Config{BT: 2, BX: []int{16, 16}}
	deep := Config{BT: 8, BX: []int{16, 16}}
	if deep.RedundancyFactor(slopes) <= shallow.RedundancyFactor(slopes) {
		t.Fatal("deeper time tiles should increase redundancy")
	}
}

func TestConfigValidation(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	g := grid.NewGrid2D(10, 10, 1, 1)
	if err := Run(g.View(), stencil.Heat2D, 2, Config{BT: 0, BX: []int{4, 4}}, pool); err == nil {
		t.Error("BT=0 accepted")
	}
	if err := Run(g.View(), stencil.Heat2D, 2, Config{BT: 2, BX: []int{4}}, pool); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := Run(g.View(), stencil.Heat3D, 2, Config{BT: 2, BX: []int{4, 4}}, pool); err == nil {
		t.Error("3D kernel accepted")
	}
	if err := Run(grid.NewGrid3D(10, 10, 10, 1, 1, 1).View(), stencil.Heat3D, 2, Config{BT: 2, BX: []int{4, 4, 4}}, pool); err == nil {
		t.Error("3D grid accepted")
	}
}
