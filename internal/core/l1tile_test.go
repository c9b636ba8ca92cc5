package core

import (
	"fmt"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// One-stage heat-2d under the default tiling (NewConfig's L1 tiles)
// runs bitwise like the naive oracle on the dense layout: unmasked and
// masked, on every kernel tier, at one and two workers, including a
// domain whose 129-wide rows are padded and one where the tile is
// clamped in x.
func TestL1TileHeat2DMatchesNaive(t *testing.T) {
	defer SetKernelPath(KernelPath())
	const steps = 21
	p := stencil.OneStage(stencil.Heat2D)
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		for _, n := range [][]int{{37, 129}, {128, 128}, {203, 157}} {
			cfg := DefaultConfig(n, stencil.Heat2D.Slopes)
			sched := mustSchedule(t, &cfg, steps)
			for _, maskName := range []string{"", "lshape", "obstacle"} {
				var m *grid.Mask
				if maskName != "" {
					var err error
					if m, err = grid.NamedMask(maskName, n); err != nil {
						t.Fatal(err)
					}
				}
				for _, path := range []string{"row", "block", "simd"} {
					if err := SetKernelPath(path); err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%v mask=%q %s workers=%d BT=%d Big=%v", n, maskName, path, workers, cfg.BT, cfg.Big)
					g := grid.NewGrid2D(n[0], n[1], 1, 1)
					fill2D(g, int64(n[0]*n[1]))
					ref := unpadded(g)
					if err := Run2D(g, p, sched, pool, m, nil); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if err := naive.RunPipeline2D(ref, p, steps, nil, m); err != nil {
						t.Fatal(err)
					}
					if r := verify.Grids2D(g, ref); !r.Equal {
						t.Fatalf("%s: %v", what, r.Error("L1 tile"))
					}
					checkPaddingZero(t, g, what)
				}
			}
		}
		pool.Close()
	}
}

// Every default 2D config (the L1 tiles, clamps included) over a sweep
// of domain sizes and slopes 1 and 2 yields a schedule that passes the
// Theorem 3.5/3.6 validator.
func TestDefault2DConfigsValidate(t *testing.T) {
	sizes := []int{1, 3, 13, 33, 37, 65, 128}
	for _, s := range []int{1, 2} {
		for _, nx := range sizes {
			for _, ny := range sizes {
				cfg := DefaultConfig([]int{nx, ny}, []int{s, s})
				if err := cfg.Validate(); err != nil {
					t.Fatalf("DefaultConfig(%d×%d, slope %d): %v", nx, ny, s, err)
				}
				// BT+3 steps cross a phase boundary and leave a partial
				// phase.
				if err := ValidateSchedule(&cfg, cfg.BT+3); err != nil {
					t.Fatalf("DefaultConfig(%d×%d, slope %d) BT=%d Big=%v: %v", nx, ny, s, cfg.BT, cfg.Big, err)
				}
			}
		}
	}
}
