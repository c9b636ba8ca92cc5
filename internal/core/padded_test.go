package core

import (
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// unpadded returns a copy of g in the dense layout SY = NY+2*HY, so
// an oracle run on it shares no stride arithmetic with a run on g.
func unpadded(g *grid.Grid2D) *grid.Grid2D {
	c := &grid.Grid2D{NX: g.NX, NY: g.NY, HX: g.HX, HY: g.HY, SY: g.NY + 2*g.HY, Step: g.Step}
	for p := range c.Buf {
		c.Buf[p] = make([]float64, (g.NX+2*g.HX)*c.SY)
		for x := -g.HX; x < g.NX+g.HX; x++ {
			copy(c.Buf[p][c.Idx(x, -g.HY):c.Idx(x, g.NY+g.HY)], g.Buf[p][g.Idx(x, -g.HY):g.Idx(x, g.NY+g.HY)])
		}
	}
	return c
}

// checkPaddingZero fails if any cell past a row's halo is nonzero in
// either buffer: no run may read or write row padding.
func checkPaddingZero(t *testing.T, g *grid.Grid2D, what string) {
	t.Helper()
	for p, b := range g.Buf {
		for x := -g.HX; x < g.NX+g.HX; x++ {
			for i := g.Idx(x, g.NY+g.HY); i < g.Idx(x+1, -g.HY); i++ {
				if b[i] != 0 {
					t.Fatalf("%s: buffer %d row %d padding cell %d = %v", what, p, x, i, b[i])
				}
			}
		}
	}
}

// A grid wide enough for its rows to be padded must run bitwise like
// the naive oracle on the dense layout, for a plain Spec, a masked
// Spec and the fused rk2 pipeline, on every kernel tier, and leave the
// padding untouched.
func TestRun2DPaddedRowsMatchNaive(t *testing.T) {
	const nx, ny, steps = 24, 1030, 7
	pool := par.NewPool(2)
	defer pool.Close()
	old := KernelPath()
	defer SetKernelPath(old)
	lshape, err := grid.NamedMask("lshape", []int{nx, ny})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *stencil.Pipeline
		m    *grid.Mask
	}{
		{"heat-2d", stencil.OneStage(stencil.Heat2D), nil},
		{"heat-2d/lshape", stencil.OneStage(stencil.Heat2D), lshape},
		{"rk2", rk2ish(stencil.Heat2D), nil},
	}
	for _, path := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			sl := c.p.Slopes()
			for _, cfg := range []Config{
				NewConfig([]int{nx, ny}, sl, c.p.StencilStages(), 2, nil, false, nil),
				NewConfig([]int{nx, ny}, sl, c.p.StencilStages(), 2, []int{6 * sl[0], 20 * sl[1]}, true, nil),
			} {
				what := path + "/" + c.name
				g := grid.NewGrid2D(nx, ny, sl[0], sl[1])
				if g.SY == ny+2*sl[1] {
					t.Fatalf("%s: SY=%d, want a padded stride", what, g.SY)
				}
				fill2D(g, 21)
				ref := unpadded(g)
				if err := Run(g.View(), c.p, mustSchedule(t, &cfg, steps), pool, c.m, nil, nil); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := naive.Run(ref.View(), c.p, steps, nil, c.m); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s Big=%v: %v", what, cfg.Big, r.Error("padded"))
				}
				checkPaddingZero(t, g, what)
			}
		}
	}
}
