// Package overlap implements overlapped (ghost-zone) tiling
// [Krishnamoorthy et al.; Meng & Skadron], the redundant-computation
// scheme the paper's related-work section contrasts with: rectangular
// spatial tiles are extended by BT*slope ghost cells per side, every
// tile advances BT time steps fully independently — maximal concurrency
// and a single synchronization per BT steps — and the ghost work is
// recomputed by both neighbouring tiles. The paper's critique is
// exactly this trade: "the redundant operations may outweigh the
// performance improvement".
package overlap

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Config parametrises the tiling: BX is the owned tile extent per
// dimension, BT the temporal tile height.
type Config struct {
	BT int
	BX []int
}

// Validate checks the configuration for a d-dimensional run.
func (c *Config) Validate(d int) error {
	if c.BT < 1 {
		return fmt.Errorf("overlap: BT=%d, must be >= 1", c.BT)
	}
	if len(c.BX) != d {
		return fmt.Errorf("overlap: BX rank %d != %d", len(c.BX), d)
	}
	for k, b := range c.BX {
		if b < 1 {
			return fmt.Errorf("overlap: BX[%d]=%d, must be >= 1", k, b)
		}
	}
	return nil
}

// RedundancyFactor returns the ratio of computed to useful point
// updates for the given stencil: the trapezoidal ghost volume shrinks
// by slope per step, so the factor is the mean of
// prod_k (BX_k + 2*slope_k*(BT-1-u)) / prod_k BX_k over u in [0, BT).
func (c *Config) RedundancyFactor(slopes []int) float64 {
	total := 0.0
	for u := 0; u < c.BT; u++ {
		v := 1.0
		for k, bx := range c.BX {
			v *= float64(bx+2*slopes[k]*(c.BT-1-u)) / float64(bx)
		}
		total += v
	}
	return total / float64(c.BT)
}

// Run2D advances a 2D grid by steps time steps. Each tile works in a
// private scratch buffer covering its ghost-extended region, so tiles
// are entirely independent within a time band; results are copied back
// to the owned region only.
func Run2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	// One kernel resolution per run through the shared path selector
	// (see core.SetKernelPath), like every other scheme.
	k, err := s.ResolveBox(2, stencil.ActivePath())
	if err != nil {
		return fmt.Errorf("overlap: %w", err)
	}
	if err := cfg.Validate(2); err != nil {
		return err
	}
	sx, sy := s.Slopes[0], s.Slopes[1]
	ntx := (g.NX + cfg.BX[0] - 1) / cfg.BX[0]
	nty := (g.NY + cfg.BX[1] - 1) / cfg.BX[1]

	for t0 := 0; t0 < steps; t0 += cfg.BT {
		bt := min(cfg.BT, steps-t0)
		ghostX, ghostY := bt*sx, bt*sy
		src := g.Buf[g.Step&1]

		// Scratch shape: owned tile + ghost + stencil halo per side.
		w := cfg.BX[0] + 2*ghostX + 2*sx
		h := cfg.BX[1] + 2*ghostY + 2*sy
		results := make([][]float64, ntx*nty)

		pool.For(ntx*nty, func(ti int) {
			tx, ty := ti/nty, ti%nty
			x0, y0 := tx*cfg.BX[0], ty*cfg.BX[1]
			x1, y1 := min(x0+cfg.BX[0], g.NX), min(y0+cfg.BX[1], g.NY)

			a := make([]float64, w*h)
			b := make([]float64, w*h)
			// Load the ghost-extended region, clamped to grid+halo.
			for x := 0; x < w; x++ {
				gx := clamp(x0-ghostX-sx+x, -g.HX, g.NX+g.HX-1)
				for y := 0; y < h; y++ {
					gy := clamp(y0-ghostY-sy+y, -g.HY, g.NY+g.HY-1)
					a[x*h+y] = src[g.Idx(gx, gy)]
				}
			}
			// Advance bt steps; the valid interior shrinks by slope per
			// step from the ghost-extended region, and cells mapping
			// outside the global domain are boundary constants that must
			// never be updated (they are clipped from the sweep and
			// carried over by the copy).
			for u := 0; u < bt; u++ {
				shrink := u + 1
				xlo := max(sx*shrink, ghostX+sx-x0)
				xhi := min(w-sx*shrink, g.NX-x0+ghostX+sx)
				ylo := max(sy*shrink, ghostY+sy-y0)
				yhi := min(h-sy*shrink, g.NY-y0+ghostY+sy)
				// Keep boundary and not-yet-overwritten cells in the
				// destination buffer.
				copy(b, a)
				k(b, a, xlo*h+ylo, [3]int{xhi - xlo, yhi - ylo}, [3]int{h, 1})
				a, b = b, a
			}
			// Extract the owned region at its final offset.
			out := make([]float64, (x1-x0)*(y1-y0))
			for x := x0; x < x1; x++ {
				row := (x - x0 + ghostX + sx) * h
				copy(out[(x-x0)*(y1-y0):(x-x0+1)*(y1-y0)], a[row+ghostY+sy+0:row+ghostY+sy+y1-y0])
			}
			results[ti] = out
		})

		// Publish: write owned regions into the buffer of parity
		// (Step+bt). The other parity buffer is stale, but the next band
		// reloads everything from the current buffer, so only the final
		// parity matters.
		dst := g.Buf[(g.Step+bt)&1]
		pool.For(ntx*nty, func(ti int) {
			tx, ty := ti/nty, ti%nty
			x0, y0 := tx*cfg.BX[0], ty*cfg.BX[1]
			x1, y1 := min(x0+cfg.BX[0], g.NX), min(y0+cfg.BX[1], g.NY)
			out := results[ti]
			for x := x0; x < x1; x++ {
				copy(dst[g.Idx(x, y0):g.Idx(x, y0)+(y1-y0)], out[(x-x0)*(y1-y0):(x-x0+1)*(y1-y0)])
			}
		})
		g.Step += bt
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
