package naive

import (
	"math"
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// Parallel naive execution must match serial naive execution exactly.
func TestParallelMatchesSerial(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()

	t.Run("1d", func(t *testing.T) {
		a := grid.NewGrid1D(101, 1)
		rng := rand.New(rand.NewSource(1))
		a.Fill(func(x int) float64 { return rng.Float64() })
		b := a.Clone()
		Run(a.View(), stencil.OneStage(stencil.Heat1D), 9, nil, nil)
		Run(b.View(), stencil.OneStage(stencil.Heat1D), 9, pool, nil)
		if r := verify.Grids1D(a, b); !r.Equal {
			t.Fatal(r.Error("naive-1d"))
		}
	})
	t.Run("2d", func(t *testing.T) {
		a := grid.NewGrid2D(33, 29, 1, 1)
		rng := rand.New(rand.NewSource(2))
		a.Fill(func(x, y int) float64 { return rng.Float64() })
		b := a.Clone()
		Run(a.View(), stencil.OneStage(stencil.Heat2D), 7, nil, nil)
		Run(b.View(), stencil.OneStage(stencil.Heat2D), 7, pool, nil)
		if r := verify.Grids2D(a, b); !r.Equal {
			t.Fatal(r.Error("naive-2d"))
		}
	})
	t.Run("3d", func(t *testing.T) {
		a := grid.NewGrid3D(14, 12, 16, 1, 1, 1)
		rng := rand.New(rand.NewSource(3))
		a.Fill(func(x, y, z int) float64 { return rng.Float64() })
		b := a.Clone()
		Run(a.View(), stencil.OneStage(stencil.Heat3D), 5, nil, nil)
		Run(b.View(), stencil.OneStage(stencil.Heat3D), 5, pool, nil)
		if r := verify.Grids3D(a, b); !r.Equal {
			t.Fatal(r.Error("naive-3d"))
		}
	})
}

// Space tiling is a pure traversal-order change: identical output.
func TestSpaceTiledMatchesNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	a := grid.NewGrid2D(50, 46, 1, 1)
	rng := rand.New(rand.NewSource(4))
	a.Fill(func(x, y int) float64 { return rng.Float64() })
	b := a.Clone()
	Run(a.View(), stencil.OneStage(stencil.Box2D9), 6, nil, nil)
	if err := SpaceTiled(b.View(), stencil.Box2D9, 6, []int{13, 9}, pool); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids2D(a, b); !r.Equal {
		t.Fatal(r.Error("space-tiled-2d"))
	}

	a3 := grid.NewGrid3D(18, 14, 12, 1, 1, 1)
	a3.Fill(func(x, y, z int) float64 { return rng.Float64() })
	b3 := a3.Clone()
	Run(a3.View(), stencil.OneStage(stencil.Box3D27), 4, nil, nil)
	if err := SpaceTiled(b3.View(), stencil.Box3D27, 4, []int{5, 6}, pool); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids3D(a3, b3); !r.Equal {
		t.Fatal(r.Error("space-tiled-3d"))
	}
}

// Heat diffusion sanity: with a cold boundary, total heat decreases
// monotonically and temperatures stay within initial bounds (the
// maximum principle of the discrete heat equation).
func TestHeatPhysics2D(t *testing.T) {
	g := grid.NewGrid2D(31, 31, 1, 1)
	g.Set(15, 15, 100)
	g.SetBoundary(0)
	prevTotal := math.Inf(1)
	for it := 0; it < 5; it++ {
		Run(g.View(), stencil.OneStage(stencil.Heat2D), 10, nil, nil)
		total := 0.0
		for x := 0; x < 31; x++ {
			for y := 0; y < 31; y++ {
				v := g.At(x, y)
				if v < 0 || v > 100 {
					t.Fatalf("temperature %v outside [0, 100] at (%d,%d)", v, x, y)
				}
				total += v
			}
		}
		if total > prevTotal {
			t.Fatalf("total heat grew: %v -> %v", prevTotal, total)
		}
		prevTotal = total
	}
}

// RunND with a 2D generic star must agree with Run on the specialised
// Heat2D spec on the heat kernel coefficients.
func TestRunNDMatchesRun2D(t *testing.T) {
	gs := &stencil.Generic{Name: "heat2d-nd", Dims: 2, Slopes: []int{1, 1}}
	gs.Offsets = [][]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	gs.Coeffs = []float64{0.5, 0.125, 0.125, 0.125, 0.125}

	nd := grid.NewNDGrid([]int{17, 19}, []int{1, 1})
	g2 := grid.NewGrid2D(17, 19, 1, 1)
	rng := rand.New(rand.NewSource(5))
	for x := 0; x < 17; x++ {
		for y := 0; y < 19; y++ {
			v := rng.Float64()
			nd.Set([]int{x, y}, v)
			g2.Set(x, y, v)
		}
	}
	RunND(nd, gs, 6, false)
	Run(g2.View(), stencil.OneStage(stencil.Heat2D), 6, nil, nil)
	// The generic kernel associates the sum differently from the
	// specialised one, so allow ulp-level drift (the bitwise-equality
	// invariant holds only across schemes sharing one kernel).
	for x := 0; x < 17; x++ {
		for y := 0; y < 19; y++ {
			a, b := nd.At([]int{x, y}), g2.At(x, y)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("mismatch at (%d,%d): %v vs %v", x, y, a, b)
			}
		}
	}
}

// Periodic boundaries: a translation-invariant initial field stays
// translation invariant, and a point pattern wraps around.
func TestRunNDPeriodic(t *testing.T) {
	gs := stencil.NewStar(1, 1)
	g := grid.NewNDGrid([]int{8}, []int{1})
	g.Set([]int{0}, 8) // pulse at the left edge
	RunND(g, gs, 1, true)
	// The pulse's left neighbour is index 7 under wrap-around.
	if g.At([]int{7}) == 0 {
		t.Fatal("pulse did not wrap around the periodic boundary")
	}
	if g.At([]int{1}) == 0 {
		t.Fatal("pulse did not diffuse right")
	}
	// Conservation: star coefficients sum to 1 and wrap-around loses
	// nothing, so total mass is preserved (up to rounding).
	total := 0.0
	for x := 0; x < 8; x++ {
		total += g.At([]int{x})
	}
	if math.Abs(total-8) > 1e-9 {
		t.Fatalf("periodic diffusion lost mass: total %v, want 8", total)
	}
}
