// Package oblivious implements cache-oblivious trapezoidal
// decomposition in the style of Frigo–Strumpen and the Pochoir stencil
// compiler: the space-time region is recursively cut — a space cut
// splits a wide dimension into two independent narrowing ("black")
// trapezoids executed in parallel followed by the widening ("grey")
// triangle between them, a time cut halves the window — until a small
// base case is reached. No cache-size parameter appears anywhere; data
// reuse emerges from the recursion, and parallelism from the
// independent black pieces (the hyperspace-cut behaviour the paper
// compares against).
package oblivious

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Config holds the base-case cutoffs; Pochoir's defaults are 100x100x5
// for 2D and 1000x3x3x3 for 3D problems. A trapezoid whose time extent
// is at most TCut and whose every spatial width is at most SCut[k] is
// executed directly.
type Config struct {
	TCut int
	SCut []int
}

// DefaultConfig mirrors Pochoir's published cutoffs for the given
// dimension.
func DefaultConfig(d int) Config {
	switch d {
	case 1:
		return Config{TCut: 5, SCut: []int{1000}}
	case 2:
		return Config{TCut: 5, SCut: []int{100, 100}}
	default:
		s := make([]int, d)
		s[d-1] = 1000
		for k := 0; k < d-1; k++ {
			s[k] = 3
		}
		return Config{TCut: 3, SCut: s}
	}
}

// zoid is a d-dimensional trapezoid: at time t in [t0, t1) dimension k
// spans [x0[k]+(t-t0)*dx0[k], x1[k]+(t-t0)*dx1[k]). Fixed-size arrays
// keep the recursion allocation-free.
type zoid struct {
	x0, dx0, x1, dx1 [3]int
}

// walker drives the recursion for one run.
type walker struct {
	d      int
	slopes [3]int
	cfg    Config
	lim    *par.Limiter
	// box executes the stencil over [lo, hi) at time t (updates t→t+1).
	box func(t int, lo, hi [3]int)
}

func (w *walker) walk(t0, t1 int, z zoid) {
	dt := t1 - t0
	if dt <= 0 {
		return
	}
	// Base case: directly sweep small trapezoids.
	if dt == 1 || w.smallEnough(dt, z) {
		var lo, hi [3]int
		for t := t0; t < t1; t++ {
			empty := false
			for k := 0; k < w.d; k++ {
				lo[k] = z.x0[k] + (t-t0)*z.dx0[k]
				hi[k] = z.x1[k] + (t-t0)*z.dx1[k]
				if lo[k] >= hi[k] {
					empty = true
					break
				}
			}
			if !empty {
				w.box(t, lo, hi)
			}
		}
		return
	}
	// Space cut: pick the widest cuttable dimension.
	bestK, bestW := -1, 0
	for k := 0; k < w.d; k++ {
		width := z.x1[k] - z.x0[k]
		if width >= 4*w.slopes[k]*dt && width > bestW {
			bestK, bestW = k, width
		}
	}
	if bestK >= 0 {
		k := bestK
		mid := z.x0[k] + bestW/2
		s := w.slopes[k]
		left, right, grey := z, z, z
		left.x1[k], left.dx1[k] = mid, -s
		right.x0[k], right.dx0[k] = mid, s
		grey.x0[k], grey.dx0[k] = mid, -s
		grey.x1[k], grey.dx1[k] = mid, s
		w.lim.Par(
			func() { w.walk(t0, t1, left) },
			func() { w.walk(t0, t1, right) },
		)
		w.walk(t0, t1, grey)
		return
	}
	// Time cut.
	tm := t0 + dt/2
	w.walk(t0, tm, z)
	adv := z
	for k := 0; k < w.d; k++ {
		adv.x0[k] += (tm - t0) * z.dx0[k]
		adv.x1[k] += (tm - t0) * z.dx1[k]
	}
	w.walk(tm, t1, adv)
}

func (w *walker) smallEnough(dt int, z zoid) bool {
	if dt > w.cfg.TCut {
		return false
	}
	for k := 0; k < w.d; k++ {
		if z.x1[k]-z.x0[k] > w.cfg.SCut[k] {
			return false
		}
	}
	return true
}

func (c *Config) validate(d int) error {
	if c.TCut < 1 {
		return fmt.Errorf("oblivious: TCut=%d, must be >= 1", c.TCut)
	}
	if len(c.SCut) != d {
		return fmt.Errorf("oblivious: SCut rank %d != %d", len(c.SCut), d)
	}
	for k, s := range c.SCut {
		if s < 1 {
			return fmt.Errorf("oblivious: SCut[%d]=%d, must be >= 1", k, s)
		}
	}
	return nil
}

// Run advances the grid v views by steps time steps.
func Run(v grid.View, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	// One kernel resolution per run through the shared path selector
	// (see core.SetKernelPath), like every other scheme.
	k, err := s.ResolveBox(v.D, stencil.ActivePath())
	if err != nil {
		return fmt.Errorf("oblivious: %w", err)
	}
	if err := cfg.validate(v.D); err != nil {
		return err
	}
	w := &walker{d: v.D, cfg: cfg, lim: par.NewLimiter(pool.Workers())}
	copy(w.slopes[:], s.Slopes)
	w.box = func(t int, lo, hi [3]int) {
		base, n := v.Box(lo, hi)
		k(v.Dst(t), v.Src(t), base, n, v.S)
	}
	w.walk(0, steps, zoid{x1: v.N})
	*v.Step += steps
	return nil
}
