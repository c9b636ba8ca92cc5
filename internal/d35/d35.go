// Package d35 implements 3.5D blocking [Nguyen et al., SC'10; Phillips
// & Fatica], the hand-tuned scheme the paper's related work describes:
// 2.5D spatial blocking — the y-z plane is cut into cache-resident
// tiles while x is streamed — enhanced with temporal blocking. Each
// tile carries a ghost zone of BT*slope cells in y/z (recomputed
// redundantly by neighbouring tiles, as in the original) and streams
// along x through a software pipeline: when source plane x arrives,
// plane x-1 advances to time level 1, plane x-2 to level 2, ...,
// plane x-BT leaves the pipeline fully advanced and is written out.
//
// Staging keeps every time level as three physically contiguous planes
// inside one backing array; by passing offset slices of that array and
// the staging's plane and row strides, the executor runs the spec's
// resolved box kernel (stencil.Spec.ResolveBox) unchanged, so the
// outputs stay bitwise identical to every other scheme. The price is
// two plane copies per level per step — the original rotates registers
// instead, but the schedule (and therefore the memory behaviour being
// compared) is the same.
package d35

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Config parametrises the tiling: BT is the pipeline depth (temporal
// tile), TY/TZ the owned tile extents in y and z.
type Config struct {
	BT int
	TY int
	TZ int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.BT < 1 {
		return fmt.Errorf("d35: BT=%d, must be >= 1", c.BT)
	}
	if c.TY < 1 || c.TZ < 1 {
		return fmt.Errorf("d35: tile %dx%d, must be >= 1", c.TY, c.TZ)
	}
	return nil
}

// Run3D advances a 3D grid by steps time steps with 3.5D blocking.
func Run3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	// One kernel resolution per run through the shared path selector
	// (see core.SetKernelPath), like every other scheme.
	k, err := s.ResolveBox(3, stencil.ActivePath())
	if err != nil {
		return fmt.Errorf("d35: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	sx, sy, sz := s.Slopes[0], s.Slopes[1], s.Slopes[2]
	if sx != 1 {
		return fmt.Errorf("d35: x slope %d not supported (pipeline advances one plane per step)", sx)
	}
	nty := (g.NY + cfg.TY - 1) / cfg.TY
	ntz := (g.NZ + cfg.TZ - 1) / cfg.TZ

	for t0 := 0; t0 < steps; t0 += cfg.BT {
		bt := min(cfg.BT, steps-t0)
		src := g.Buf[g.Step&1]
		// Always drain into the buffer the pipeline is NOT reading:
		// with an even bt the time-parity buffer would alias src, and
		// tiles would read neighbours' already-finalised ghost rows.
		dst := g.Buf[(g.Step+1)&1]
		pool.For(nty*ntz, func(ti int) {
			runTile(g, k, src, dst, cfg, bt, sy, sz, (ti/ntz)*cfg.TY, (ti%ntz)*cfg.TZ)
		})
		if bt%2 == 0 {
			// Keep the grid's invariant that current values live in
			// Buf[Step&1].
			g.Buf[0], g.Buf[1] = g.Buf[1], g.Buf[0]
		}
		g.Step += bt
	}
	return nil
}

// runTile streams one y-z tile through the x pipeline for bt steps.
func runTile(g *grid.Grid3D, k stencil.BoxKernel, src, dst []float64, cfg Config, bt, sy, sz, y0, z0 int) {
	y1 := min(y0+cfg.TY, g.NY)
	z1 := min(z0+cfg.TZ, g.NZ)
	gy, gz := bt*sy, bt*sz // ghost widths

	// Staged plane geometry: ghost-extended tile plus one slope margin,
	// in global coordinates [ylo, yhi) x [zlo, zhi) clamped to the
	// grid-plus-halo box so loads never index outside storage.
	ylo, yhi := max(y0-gy-sy, -g.HY), min(y1+gy+sy, g.NY+g.HY)
	zlo, zhi := max(z0-gz-sz, -g.HZ), min(z1+gz+sz, g.NZ+g.HZ)
	ph := zhi - zlo // plane row (z) extent
	pw := yhi - ylo // plane y extent
	ps := pw * ph   // plane size
	lvl := 3 * ps   // level stride: three planes per level
	// Backing array: one padding plane, then levels 0..bt.
	arr := make([]float64, ps+(bt+1)*lvl)
	off := func(t int) int { return ps + t*lvl }

	loadPlane := func(dstAt int, x int) {
		// Copy grid plane x (clamped to the halo box) into arr[dstAt:].
		xc := clamp(x, -g.HX, g.NX+g.HX-1)
		for y := ylo; y < yhi; y++ {
			row := g.Idx(xc, y, zlo)
			copy(arr[dstAt+(y-ylo)*ph:dstAt+(y-ylo)*ph+ph], src[row:row+ph])
		}
	}

	// Prime every level's three slots with boundary-consistent data so
	// early pipeline reads (x < 0 region) see the constant halo.
	for t := 0; t <= bt; t++ {
		for slot := 0; slot < 3; slot++ {
			loadPlane(off(t)+slot*ps, -1)
		}
	}

	shift := func(t int) {
		o := off(t)
		copy(arr[o:o+2*ps], arr[o+ps:o+3*ps])
	}

	for step := 0; step < g.NX+bt; step++ {
		// Level 0: shift and load source plane x = step.
		shift(0)
		loadPlane(off(0)+2*ps, step)

		for t := 1; t <= bt; t++ {
			shift(t)
			p := step - t
			cur := off(t) + 2*ps
			if p < 0 || p >= g.NX {
				// Outside the domain: the plane is the constant halo.
				loadPlane(cur, p)
				continue
			}
			// Start from the previous level's plane so ghost-clipped and
			// out-of-domain cells inherit consistent values.
			copy(arr[cur:cur+ps], arr[off(t-1)+ps:off(t-1)+2*ps])
			// Valid window shrinks by one slope per level, clipped to
			// the domain interior.
			wylo := max(max(y0-gy+t*sy, 0), ylo+sy)
			wyhi := min(min(y1+gy-t*sy, g.NY), yhi-sy)
			wzlo := max(max(z0-gz+t*sz, 0), zlo+sz)
			wzhi := min(min(z1+gz-t*sz, g.NZ), zhi-sz)
			if wylo >= wyhi || wzlo >= wzhi {
				continue
			}
			// One box over offset slices: dst slot 2 of level t aligns
			// with the middle plane of level t-1 when the source slice
			// is rebased one plane earlier (the padding plane guarantees
			// the offset exists).
			base := 2*ps + (wylo-ylo)*ph + (wzlo - zlo)
			k(arr[off(t):], arr[off(t-1)-ps:], base, [3]int{1, wyhi - wylo, wzhi - wzlo}, [3]int{ps, ph, 1})
		}

		// Drain: the plane leaving level bt is final; store its owned
		// region.
		if p := step - bt; p >= 0 && p < g.NX {
			o := off(bt) + 2*ps
			for y := y0; y < y1; y++ {
				row := o + (y-ylo)*ph + (z0 - zlo)
				out := g.Idx(p, y, z0)
				copy(dst[out:out+(z1-z0)], arr[row:row+(z1-z0)])
			}
		}
	}
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
