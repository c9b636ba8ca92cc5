package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Execution. Every tessellated run replays a precomputed Schedule
// through one region walker (walk): the walker owns the region loop —
// stop check, dispatch grouping, each visit's clipped box, mask
// classification, telemetry and the Step advance — and hands each
// non-empty block visit to an executor body. The bodies are the fused
// pipeline (Run, for grids of rank 1 to 3: a plain Spec run is the
// one-stage pipeline stencil.OneStage) and the formula-driven generic
// stencil (RunND).

// ErrStopped is returned by the executors when their cooperative stop
// flag is observed set at a region boundary. The grid is left mid-run
// (Step is NOT advanced) and must be re-seeded before reuse; a server
// releasing the buffer back to an arena does exactly that.
var ErrStopped = errors.New("core: run stopped at a region boundary")

// stopped reports whether a cooperative stop has been requested.
// Region boundaries are the natural check points: they are full
// synchronisation points of the schedule (every worker has drained),
// so aborting there never leaves a parallel region half-dispatched.
func stopped(stop *atomic.Bool) bool {
	return stop != nil && stop.Load()
}

// Run advances the grid v views by sched.Steps() logical time steps of
// the pipeline p, fusing all stages into each block visit of the
// schedule. A single stencil runs as stencil.OneStage(s). The grid halo
// and the schedule's slopes must match p's compound slope. A non-nil
// mask m, of the schedule's domain, restricts every stage to its active
// points (nil means the full domain); once a non-nil stop is set, the
// run aborts with ErrStopped at the next region boundary.
//
// A nil plan visits every block of the schedule, so v must span the
// domain. A view of only the dimension-0 planes [v.X0, v.X0+N[0]) of
// the domain (with its halos), the slab of a distributed rank, needs a
// plan: one list of passes per region, naming only blocks that write
// inside the view and read inside it and its halo. The schedule stays
// global; the view's origin places every box in its buffers.
func Run(v grid.View, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool, plan [][]Pass) error {
	if err := checkRun(v, p, sched, m, plan); err != nil {
		return err
	}
	b, err := newPipeBody(v, p, sched, m, plan)
	if err != nil {
		return err
	}
	return b.run(pool, stop)
}

// RunScheduled2D runs the stencil s over sched on g's full domain: Run
// with the one-stage pipeline, no mask, no stop flag and no plan. It
// stays because perfbench's scaling probe calls it.
func RunScheduled2D(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	return Run(g.View(), stencil.OneStage(s), sched, pool, nil, nil, nil)
}

// RunND advances an n-dimensional grid by sched.Steps() time steps of
// the generic stencil gs. It is the formula-driven executor covering
// any dimension (paper §3 in full generality): slower than the
// specialised ones, but walking the identical geometry. It is also the
// one executor of periodic schedules (Config.Periodic), whose grids
// need no halo. stop behaves as in Run.
func RunND(g *grid.NDGrid, gs *stencil.Generic, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	if err := checkSchedule(sched, g.Dims, gs.Slopes); err != nil {
		return err
	}
	periodic := sched.cfg.Periodic
	for k := 0; k < g.D() && !periodic; k++ {
		if g.Halo[k] < gs.Slopes[k] {
			return fmt.Errorf("core: grid halo %v < slopes %v", g.Halo, gs.Slopes)
		}
	}
	b := &bodyND{g: g, gs: gs, flat: gs.FlatOffsets(g.Strides), periodic: periodic,
		rows: !periodic || runPath() >= stencil.PathBlock}
	return walk(sched, &g.Step, pool, newLanes(pool.Workers(), g.D()), nil, nil, stop, nil, b)
}

// bodyND runs one block visit of the generic stencil: the last
// dimension has unit stride, so one ApplyRow per contiguous row
// instead of one Apply (and one g.Idx) per point. On a periodic run a
// box whose stencil footprint leaves [0, N) gathers every point and
// neighbour mod N instead; rows is false on the row kernel path, where
// every periodic box takes that wrap loop, the oracle of the row fast
// path (ApplyRow accumulates in the same declaration order, so both
// are bitwise identical).
type bodyND struct {
	g        *grid.NDGrid
	gs       *stencil.Generic
	flat     []int
	periodic bool
	rows     bool
}

func (b *bodyND) visit(l *lane, par, _ int) {
	dst, src := b.g.Buf[par^1], b.g.Buf[par]
	lo, hi, p := l.lo, l.hi, l.qlo
	if b.periodic && !b.inside(lo, hi) {
		b.wrap(dst, src, lo, hi, p, l.qhi, l.slo)
		return
	}
	n := hi[len(hi)-1] - lo[len(lo)-1]
	copy(p, lo)
	for {
		b.gs.ApplyRow(dst, src, b.g.Idx(p), n, b.flat)
		l.calls.rows++
		if !nextRow(p, lo, hi) {
			return
		}
	}
}

// inside reports whether the rows fast path may run the box [lo, hi):
// the box plus its stencil footprint lies inside [0, N), so no access
// wraps.
func (b *bodyND) inside(lo, hi []int) bool {
	if !b.rows {
		return false
	}
	for k, s := range b.gs.Slopes {
		if lo[k]-s < 0 || hi[k]+s > b.g.Dims[k] {
			return false
		}
	}
	return true
}

// wrap runs the box [lo, hi) point by point, wrapping the point and
// each of its neighbours mod N. p, q and nb are scratch of length d.
func (b *bodyND) wrap(dst, src []float64, lo, hi, p, q, nb []int) {
	n := b.g.Dims
	copy(p, lo)
	for {
		var acc float64
		for i, off := range b.gs.Offsets {
			for k := range nb {
				nb[k] = wrap(p[k]+off[k], n[k])
			}
			acc += b.gs.Coeffs[i] * src[b.g.Idx(nb)]
		}
		for k := range q {
			q[k] = wrap(p[k], n[k])
		}
		dst[b.g.Idx(q)] = acc
		if !nextPoint(p, lo, hi) {
			return
		}
	}
}

// nextRow advances the odometer p over every dimension but the last
// (unit-stride) one within the box [lo, hi), and reports false once
// every row has been visited.
func nextRow(p, lo, hi []int) bool {
	for k := len(p) - 2; k >= 0; k-- {
		if p[k]++; p[k] < hi[k] {
			return true
		}
		p[k] = lo[k]
	}
	return false
}

// nextPoint is nextRow over every dimension, the last included.
func nextPoint(p, lo, hi []int) bool {
	for k := len(p) - 1; k >= 0; k-- {
		if p[k]++; p[k] < hi[k] {
			return true
		}
		p[k] = lo[k]
	}
	return false
}

// checkRun validates the arguments of Run.
func checkRun(v grid.View, p *stencil.Pipeline, sched *Schedule, m *grid.Mask, plan [][]Pass) error {
	if p == nil {
		return fmt.Errorf("core: nil pipeline")
	}
	if sched != nil && sched.cfg.Periodic {
		return fmt.Errorf("core: periodic schedules run only through RunND")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Dims() != v.D {
		return fmt.Errorf("core: pipeline %s is %dD, not %dD", p.Name, p.Dims(), v.D)
	}
	slopes := p.Slopes()
	for k, s := range slopes {
		if v.H[k] < s {
			return fmt.Errorf("core: grid halo %v < compound slopes %v", v.H[:v.D], slopes)
		}
	}
	n := v.Extents()
	if sched != nil && (v.X0 != 0 || plan != nil) {
		if v.X0 < 0 || v.X0+n[0] > sched.cfg.N[0] {
			return fmt.Errorf("core: view planes [%d, %d) outside the domain %v", v.X0, v.X0+n[0], sched.cfg.N)
		}
		if len(plan) != len(sched.regions) {
			return fmt.Errorf("core: plan of %d regions for a %d-region schedule", len(plan), len(sched.regions))
		}
		n[0] = sched.cfg.N[0]
	}
	if err := checkSchedule(sched, n, slopes); err != nil {
		return err
	}
	if err := m.Fit(n); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// checkSchedule verifies that a precomputed schedule exists and was
// built for the given grid shape and stencil slopes. The schedule's
// config was validated at construction, so only the match checks run.
func checkSchedule(sched *Schedule, n, slopes []int) error {
	if sched == nil {
		return fmt.Errorf("core: nil schedule")
	}
	return checkShape(&sched.cfg, n, slopes)
}

// checkShape verifies that cfg was built for the given grid extents
// and stencil slopes.
func checkShape(cfg *Config, n, slopes []int) error {
	if len(cfg.N) != len(n) {
		return fmt.Errorf("core: config rank %d != grid rank %d", len(cfg.N), len(n))
	}
	for k := range n {
		if cfg.N[k] != n[k] {
			return fmt.Errorf("core: config N %v != grid extents %v", cfg.N, n)
		}
		if cfg.Slopes[k] != slopes[k] {
			return fmt.Errorf("core: config slopes %v != stencil slopes %v", cfg.Slopes, slopes)
		}
	}
	return nil
}
