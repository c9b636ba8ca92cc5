// Package diamond implements concurrent-start diamond tiling
// [Bandishti et al., SC'12], the scheme Pluto generates and the
// paper's primary comparator, and the multicore wavefront diamond
// scheme of Girih [Malas et al.] on the same lattice.
//
// The executor is a direct translation of the reference loop nest in
// the paper's artifact appendix: the iteration space is tiled by
// diamonds of spatial extent BX and temporal extent 2*BT; all diamonds
// of one level execute concurrently, and levels alternate between the
// two interleaved diamond lattices. The diamond runs along the
// outermost (x) dimension and the inner dimensions are swept in full,
// the common "leave inner dimensions uncut" realisation (see DESIGN.md
// for the substitution note).
package diamond

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Config parametrises the diamond tiling: BX is the diamond's maximal
// spatial width along x, BT its half-height in time steps.
type Config struct {
	BX int
	BT int
}

// Validate checks the configuration against a stencil's x slope.
func (c *Config) Validate(slopeX int) error {
	if c.BT < 1 {
		return fmt.Errorf("diamond: BT=%d, must be >= 1", c.BT)
	}
	if c.BX < 2*c.BT*slopeX {
		return fmt.Errorf("diamond: BX=%d < 2*BT*slope=%d: diamonds would self-intersect", c.BX, 2*c.BT*slopeX)
	}
	return nil
}

// geometry carries the per-level diamond lattice, as in the appendix
// code: xright[level] is the right edge (interior coordinates) of the
// leftmost diamond's waist, ix the lattice period, nb0[level] the block
// count.
type geometry struct {
	n     int // domain extent along x
	s     int // x slope
	bx    int // waist width
	ix    int
	xr    [2]int
	nb0   [2]int
	bt    int
	steps int
}

func newGeometry(cfg Config, n, slopeX, steps int) geometry {
	g := geometry{n: n, s: slopeX, bt: cfg.BT, steps: steps}
	g.bx = cfg.BX
	g.ix = 2*g.bx - 2*cfg.BT*slopeX
	g.xr[0] = g.bx
	g.xr[1] = g.bx - g.ix/2
	for l := 0; l < 2; l++ {
		g.nb0[l] = (n+g.bx-g.xr[l]-1)/g.ix + 1
	}
	return g
}

// bounds returns the clipped x interval of diamond n at level l, time
// t; ok reports non-emptiness. The waist (maximal width) is at
// t+1 == tt+bt, exactly the appendix's myabs(t+1, tt+bt) form.
func (g *geometry) bounds(l, n, t, tt int) (lo, hi int, ok bool) {
	a := t + 1 - (tt + g.bt)
	if a < 0 {
		a = -a
	}
	lo = g.xr[l] - g.bx + n*g.ix + a*g.s
	hi = g.xr[l] + n*g.ix - a*g.s
	if lo < 0 {
		lo = 0
	}
	if hi > g.n {
		hi = g.n
	}
	return lo, hi, lo < hi
}

// forEachLevel drives the appendix's outer loop: for each time window
// tt (stride BT), body runs every diamond of the current level over
// [max(tt,0), min(tt+2*BT, steps)), then the level flips.
func (g *geometry) forEachLevel(body func(l, tt int)) {
	level := 0
	for tt := -g.bt; tt < g.steps; tt += g.bt {
		body(level, tt)
		level = 1 - level
	}
}

// prepare validates a run over v and resolves its box kernel and
// lattice.
func prepare(v grid.View, s *stencil.Spec, steps int, cfg Config) (stencil.BoxKernel, geometry, error) {
	// One kernel resolution per run through the shared path selector
	// (see core.SetKernelPath), like every other scheme.
	k, _, err := s.ResolveBox(v.D, stencil.ActivePath())
	if err != nil {
		return nil, geometry{}, err
	}
	if err := cfg.Validate(s.Slopes[0]); err != nil {
		return nil, geometry{}, err
	}
	return k, newGeometry(cfg, v.N[0], s.Slopes[0], steps), nil
}

// box runs time step t of v over x in [lo, hi), the dimension-1 rows
// [y0, y1) and every row of the dimensions past it.
func box(v grid.View, k stencil.BoxKernel, t, lo, hi, y0, y1 int) {
	base, n := v.Box([3]int{lo, y0}, [3]int{hi, y1, v.N[2]})
	k(v.Dst(t), v.Src(t), base, n, v.S)
}

// Run advances the grid v views by steps time steps: diamonds along
// x, full sweeps along the inner dimensions, every diamond of a level
// in parallel.
func Run(v grid.View, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	k, geo, err := prepare(v, s, steps, cfg)
	if err != nil {
		return fmt.Errorf("diamond: %w", err)
	}
	geo.forEachLevel(func(l, tt int) {
		pool.For(geo.nb0[l], func(n int) {
			for t := max(tt, 0); t < min(tt+2*cfg.BT, steps); t++ {
				if lo, hi, ok := geo.bounds(l, n, t, tt); ok {
					box(v, k, t, lo, hi, 0, v.N[1])
				}
			}
		})
	})
	*v.Step += steps
	return nil
}

// RunMWD advances v by steps time steps with the multicore wavefront
// diamond scheme: Run's lattice, but one diamond at a time in
// dependence order, with the pool splitting dimension 1 of each
// diamond time slice. One diamond's working set stays resident in the
// shared last-level cache; concurrency across diamonds is traded for
// memory traffic, the behaviour Fig. 12 of the paper attributes to
// Girih.
func RunMWD(v grid.View, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	k, geo, err := prepare(v, s, steps, cfg)
	if err != nil {
		return fmt.Errorf("mwd: %w", err)
	}
	w := pool.Workers()
	chunk := (v.N[1] + w - 1) / w
	geo.forEachLevel(func(l, tt int) {
		for n := 0; n < geo.nb0[l]; n++ {
			for t := max(tt, 0); t < min(tt+2*cfg.BT, steps); t++ {
				lo, hi, ok := geo.bounds(l, n, t, tt)
				if !ok {
					continue
				}
				pool.For(w, func(i int) {
					if y0 := i * chunk; y0 < v.N[1] {
						box(v, k, t, lo, hi, y0, min(y0+chunk, v.N[1]))
					}
				})
			}
		}
	})
	*v.Step += steps
	return nil
}

// Profile returns the number of concurrently executable diamonds in
// each parallel region (one region per BT-step level). Concurrent
// start: the first region is already full-width.
func Profile(cfg Config, n, slopeX, steps int) []int {
	geo := newGeometry(cfg, n, slopeX, steps)
	var out []int
	geo.forEachLevel(func(l, _ int) { out = append(out, geo.nb0[l]) })
	return out
}
