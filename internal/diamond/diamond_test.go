package diamond

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// runners are the two schedules over the diamond lattice: concurrent
// start (Run) and one diamond at a time (RunMWD).
var runners = []struct {
	name string
	run  func(grid.View, *stencil.Spec, int, Config, *par.Pool) error
}{{"diamond", Run}, {"mwd", RunMWD}}

func TestRun1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		for _, steps := range []int{1, 8, 19} {
			cfg := Config{BX: 20 * s.Slopes[0], BT: 4}
			g := grid.NewGrid1D(101, s.Slopes[0])
			rng := rand.New(rand.NewSource(11))
			g.Fill(func(x int) float64 { return rng.Float64() })
			g.SetBoundary(1)
			ref := g.Clone()
			if err := Run(g.View(), s, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run1D(ref, s, steps, nil)
			if r := verify.Grids1D(g, ref); !r.Equal {
				t.Fatalf("%s steps=%d: %v", s.Name, steps, r.Error("diamond-1d"))
			}
		}
	}
}

func TestRun2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
				cfg := Config{BX: 12, BT: 3}
				g := grid.NewGrid2D(33, 27, 1, 1)
				rng := rand.New(rand.NewSource(12))
				if s == stencil.Life {
					g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
				} else {
					g.Fill(func(x, y int) float64 { return rng.Float64() })
				}
				ref := g.Clone()
				if err := rn.run(g.View(), s, 10, cfg, pool); err != nil {
					t.Fatal(err)
				}
				naive.Run2D(ref, s, 10, nil)
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s: %v", s.Name, r.Error(rn.name+"-2d"))
				}
			}
		})
	}
}

func TestRun3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
				cfg := Config{BX: 8, BT: 2}
				g := grid.NewGrid3D(17, 13, 15, 1, 1, 1)
				rng := rand.New(rand.NewSource(13))
				g.Fill(func(x, y, z int) float64 { return rng.Float64() })
				ref := g.Clone()
				if err := rn.run(g.View(), s, 6, cfg, pool); err != nil {
					t.Fatal(err)
				}
				naive.Run3D(ref, s, 6, nil)
				if r := verify.Grids3D(g, ref); !r.Equal {
					t.Fatalf("%s: %v", s.Name, r.Error(rn.name+"-3d"))
				}
			}
		})
	}
}

func TestFuzzAgainstNaive(t *testing.T) {
	t.Run("diamond", func(t *testing.T) {
		pool := par.NewPool(3)
		defer pool.Close()
		rng := rand.New(rand.NewSource(77))
		iters := 40
		if testing.Short() {
			iters = 10
		}
		for it := 0; it < iters; it++ {
			bt := 1 + rng.Intn(5)
			cfg := Config{BT: bt, BX: 2*bt + rng.Intn(3*bt+4)}
			n := 5 + rng.Intn(80)
			steps := 1 + rng.Intn(20)
			g := grid.NewGrid1D(n, 1)
			g.Fill(func(x int) float64 { return rng.Float64() })
			ref := g.Clone()
			if err := Run(g.View(), stencil.Heat1D, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run1D(ref, stencil.Heat1D, steps, nil)
			if r := verify.Grids1D(g, ref); !r.Equal {
				t.Fatalf("iter %d cfg=%+v n=%d steps=%d: %v", it, cfg, n, steps, r.Error("fuzz"))
			}
		}
	})
	t.Run("mwd", func(t *testing.T) {
		pool := par.NewPool(2)
		defer pool.Close()
		rng := rand.New(rand.NewSource(23))
		iters := 20
		if testing.Short() {
			iters = 6
		}
		for it := 0; it < iters; it++ {
			bt := 1 + rng.Intn(4)
			cfg := Config{BT: bt, BX: 2*bt + rng.Intn(2*bt+4)}
			nx, ny := 4+rng.Intn(30), 4+rng.Intn(30)
			steps := 1 + rng.Intn(12)
			g := grid.NewGrid2D(nx, ny, 1, 1)
			g.Fill(func(x, y int) float64 { return rng.Float64() })
			ref := g.Clone()
			if err := RunMWD(g.View(), stencil.Box2D9, steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run2D(ref, stencil.Box2D9, steps, nil)
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("iter %d cfg=%+v %dx%d steps=%d: %v", it, cfg, nx, ny, steps, r.Error("fuzz"))
			}
		}
	})
}

func TestConfigValidation(t *testing.T) {
	if err := (&Config{BX: 4, BT: 4}).Validate(1); err == nil {
		t.Error("BX < 2*BT*S accepted")
	}
	if err := (&Config{BX: 8, BT: 0}).Validate(1); err == nil {
		t.Error("BT=0 accepted")
	}
	if err := (&Config{BX: 8, BT: 4}).Validate(1); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			g := grid.NewGrid2D(8, 8, 1, 1)
			if err := rn.run(g.View(), stencil.Heat2D, 2, Config{BX: 2, BT: 2}, pool); err == nil {
				t.Error("BX < 2*BT*S accepted")
			}
			if err := rn.run(g.View(), stencil.Heat3D, 2, Config{BX: 4, BT: 1}, pool); err == nil {
				t.Error("3D kernel accepted on a 2D grid")
			}
			if g.Step != 0 {
				t.Errorf("rejected run advanced Step to %d", g.Step)
			}
		})
	}
}
