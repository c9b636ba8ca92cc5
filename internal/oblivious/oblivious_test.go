package oblivious

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// Tight cutoffs force deep recursion so cuts are actually exercised.
func tinyCutoffs(d int) Config {
	s := make([]int, d)
	for k := range s {
		s[k] = 4
	}
	return Config{TCut: 2, SCut: s}
}

func TestRun1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		for _, cfg := range []Config{DefaultConfig(1), tinyCutoffs(1)} {
			for _, steps := range []int{1, 9, 24} {
				g := grid.NewGrid1D(90, s.Slopes[0])
				rng := rand.New(rand.NewSource(31))
				g.Fill(func(x int) float64 { return rng.Float64() })
				g.SetBoundary(2)
				ref := g.Clone()
				if err := Run(g.View(), s, steps, cfg, pool); err != nil {
					t.Fatal(err)
				}
				naive.Run1D(ref, s, steps, nil)
				if r := verify.Grids1D(g, ref); !r.Equal {
					t.Fatalf("%s cfg=%+v steps=%d: %v", s.Name, cfg, steps, r.Error("oblivious-1d"))
				}
			}
		}
	}
}

func TestRun2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
		for _, cfg := range []Config{DefaultConfig(2), tinyCutoffs(2)} {
			g := grid.NewGrid2D(34, 30, 1, 1)
			rng := rand.New(rand.NewSource(32))
			if s == stencil.Life {
				g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
			} else {
				g.Fill(func(x, y int) float64 { return rng.Float64() })
			}
			ref := g.Clone()
			if err := Run(g.View(), s, 11, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run2D(ref, s, 11, nil)
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("%s cfg=%+v: %v", s.Name, cfg, r.Error("oblivious-2d"))
			}
		}
	}
}

func TestRun3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
		for _, cfg := range []Config{DefaultConfig(3), tinyCutoffs(3)} {
			g := grid.NewGrid3D(16, 14, 18, 1, 1, 1)
			rng := rand.New(rand.NewSource(33))
			g.Fill(func(x, y, z int) float64 { return rng.Float64() })
			ref := g.Clone()
			if err := Run(g.View(), s, 6, cfg, pool); err != nil {
				t.Fatal(err)
			}
			naive.Run3D(ref, s, 6, nil)
			if r := verify.Grids3D(g, ref); !r.Equal {
				t.Fatalf("%s cfg=%+v: %v", s.Name, cfg, r.Error("oblivious-3d"))
			}
		}
	}
}

func TestFuzzAgainstNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(34))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		cfg := Config{TCut: 1 + rng.Intn(4), SCut: []int{1 + rng.Intn(8), 1 + rng.Intn(8)}}
		nx, ny := 4+rng.Intn(40), 4+rng.Intn(40)
		steps := 1 + rng.Intn(16)
		g := grid.NewGrid2D(nx, ny, 1, 1)
		g.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := g.Clone()
		if err := Run(g.View(), stencil.Heat2D, steps, cfg, pool); err != nil {
			t.Fatal(err)
		}
		naive.Run2D(ref, stencil.Heat2D, steps, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("iter %d cfg=%+v %dx%d steps=%d: %v", it, cfg, nx, ny, steps, r.Error("fuzz"))
		}
	}
}

func TestDefaultConfigMirrorsPochoir(t *testing.T) {
	c2 := DefaultConfig(2)
	if c2.TCut != 5 || c2.SCut[0] != 100 || c2.SCut[1] != 100 {
		t.Errorf("2D default = %+v, want Pochoir's 100x100x5", c2)
	}
	c3 := DefaultConfig(3)
	if c3.TCut != 3 || c3.SCut[0] != 3 || c3.SCut[1] != 3 || c3.SCut[2] != 1000 {
		t.Errorf("3D default = %+v, want Pochoir's 1000x3x3x3", c3)
	}
}

func TestConfigValidation(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	g := grid.NewGrid1D(10, 1)
	if err := Run(g.View(), stencil.Heat1D, 2, Config{TCut: 0, SCut: []int{4}}, pool); err == nil {
		t.Error("TCut=0 accepted")
	}
	if err := Run(g.View(), stencil.Heat1D, 2, Config{TCut: 2, SCut: []int{4, 4}}, pool); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := Run(g.View(), stencil.Heat2D, 2, DefaultConfig(1), pool); err == nil {
		t.Error("2D kernel accepted on a 1D grid")
	}
}
