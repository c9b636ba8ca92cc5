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
// pipeline (Run1D/2D/3D: a plain Spec run is the one-stage pipeline
// stencil.OneStage) and the formula-driven generic stencil (RunND).

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

// Run1D advances a 1D grid by sched.Steps() logical time steps of the
// pipeline p, fusing all stages into each block visit of the schedule.
// A single stencil runs as stencil.OneStage(s). The grid halo and the
// schedule's slopes must match p's compound slope. A non-nil mask m
// restricts every stage to its active points (nil means the full
// domain); once a non-nil stop is set, the run aborts with ErrStopped
// at the next region boundary.
func Run1D(g *grid.Grid1D, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool) error {
	if err := checkRun(p, sched, m, []int{g.N}, []int{g.H}, nil); err != nil {
		return err
	}
	b := newPipeBody(p, sched, m, g.Buf, nil, []int{1}, []int{g.H})
	k := &box1D{kern: make([]stencil.Kernel1DBlock, len(p.Stages)), h: g.H}
	for i, st := range p.Stages {
		if st.Spec != nil {
			k.kern[i], b.kpath[i] = st.Spec.Resolve1D(b.path)
		}
	}
	b.dim = k
	// A 1D strip is a strip1D-point chunk of the row at index h, so its
	// kernel reads stay at or above index 0.
	return b.run(pool, g.H+strip1D, &g.Step, stop)
}

// Run2D is Run1D for 2D grids.
func Run2D(g *grid.Grid2D, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool) error {
	return run2D(g, p, sched, pool, m, stop, nil)
}

// Run3D is Run1D for 3D grids.
func Run3D(g *grid.Grid3D, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool) error {
	return run3D(g, p, sched, pool, m, stop, nil)
}

// RunSlab runs p over sched on g, a *grid.Grid2D or *grid.Grid3D that
// holds only the dimension-0 planes [x0, x0+NX) of the schedule's
// domain (with its halos): the slab of a distributed rank. The schedule
// stays global — the box bodies shift every box by x0 planes — and the
// walker follows plan, whose passes must name only blocks that write
// inside the slab and read inside it and its halo. There is no mask or
// stop flag.
func RunSlab(g any, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, x0 int, plan [][]Pass) error {
	sl := &slab{x0: x0, plan: plan}
	switch g := g.(type) {
	case *grid.Grid2D:
		return run2D(g, p, sched, pool, nil, nil, sl)
	case *grid.Grid3D:
		return run3D(g, p, sched, pool, nil, nil, sl)
	}
	return fmt.Errorf("core: RunSlab needs a *grid.Grid2D or *grid.Grid3D, not %T", g)
}

// slab places a run's grid inside a larger domain: the grid holds the
// dimension-0 planes [x0, x0+NX) and the walker follows plan.
type slab struct {
	x0   int
	plan [][]Pass
}

// run2D is Run2D, or with a non-nil sl RunSlab, on a 2D grid.
func run2D(g *grid.Grid2D, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool, sl *slab) error {
	if err := checkRun(p, sched, m, []int{g.NX, g.NY}, []int{g.HX, g.HY}, sl); err != nil {
		return err
	}
	b := newPipeBody(p, sched, m, g.Buf, sl, []int{g.SY, 1}, []int{g.HX, g.HY})
	k := &box2D{kern: make([]stencil.Kernel2DBlock, len(p.Stages)), g: g, reach: g.Idx(0, 0)}
	for i, st := range p.Stages {
		if st.Spec != nil {
			k.kern[i], b.kpath[i] = st.Spec.Resolve2D(b.path)
		}
	}
	b.dim = k
	// A 2D strip is two rows in the grid's layout starting at index
	// reach, so kernel reads (at most HX rows and HY cells back) stay
	// at or above index 0.
	return b.run(pool, k.reach+g.SY+g.NY, &g.Step, stop)
}

// run3D is run2D for 3D grids.
func run3D(g *grid.Grid3D, p *stencil.Pipeline, sched *Schedule, pool *par.Pool, m *grid.Mask, stop *atomic.Bool, sl *slab) error {
	if err := checkRun(p, sched, m, []int{g.NX, g.NY, g.NZ}, []int{g.HX, g.HY, g.HZ}, sl); err != nil {
		return err
	}
	b := newPipeBody(p, sched, m, g.Buf, sl, []int{g.SX, g.SY, 1}, []int{g.HX, g.HY, g.HZ})
	k := &box3D{kern: make([]stencil.Kernel3DBlock, len(p.Stages)), g: g, reach: g.Idx(0, 0, 0)}
	for i, st := range p.Stages {
		if st.Spec != nil {
			k.kern[i], b.kpath[i] = st.Spec.Resolve3D(b.path)
		}
	}
	b.dim = k
	// A 3D strip is two pencils of one plane in the grid's layout
	// starting at index reach, so kernel reads (at most HX planes, HY
	// pencils and HZ cells back) stay at or above index 0.
	return b.run(pool, k.reach+g.SY+g.NZ, &g.Step, stop)
}

// RunScheduled2D runs the stencil s over sched on the full domain:
// Run2D with the one-stage pipeline, no mask and no stop flag.
func RunScheduled2D(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	return Run2D(g, stencil.OneStage(s), sched, pool, nil, nil)
}

// RunND advances an n-dimensional grid by sched.Steps() time steps of
// the generic stencil gs. It is the formula-driven executor covering
// any dimension (paper §3 in full generality): slower than the
// specialised ones, but walking the identical geometry. It is also the
// one executor of periodic schedules (Config.Periodic), whose grids
// need no halo. stop behaves as in Run1D.
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

// checkRun validates the arguments of a pipeline run against a grid of
// interior extents n and halo widths halo, placed in the domain by a
// non-nil sl.
func checkRun(p *stencil.Pipeline, sched *Schedule, m *grid.Mask, n, halo []int, sl *slab) error {
	if p == nil {
		return fmt.Errorf("core: nil pipeline")
	}
	if sched != nil && sched.cfg.Periodic {
		return fmt.Errorf("core: periodic schedules run only through RunND")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Dims() != len(n) {
		return fmt.Errorf("core: pipeline %s is %dD, not %dD", p.Name, p.Dims(), len(n))
	}
	slopes := p.Slopes()
	for k := range n {
		if halo[k] < slopes[k] {
			return fmt.Errorf("core: grid halo %v < compound slopes %v", halo, slopes)
		}
	}
	if sl != nil && sched != nil {
		if sl.x0 < 0 || sl.x0+n[0] > sched.cfg.N[0] {
			return fmt.Errorf("core: slab planes [%d, %d) outside the domain %v", sl.x0, sl.x0+n[0], sched.cfg.N)
		}
		if len(sl.plan) != len(sched.regions) {
			return fmt.Errorf("core: plan of %d regions for a %d-region schedule", len(sl.plan), len(sched.regions))
		}
		n = append([]int{sched.cfg.N[0]}, n[1:]...)
	}
	if err := checkSchedule(sched, n, slopes); err != nil {
		return err
	}
	return checkMask(m, n)
}

// checkMask validates that a non-nil m matches the grid extents n and
// finalizes it (idempotent) so the parallel region bodies only ever
// read it. A nil mask means the full domain.
func checkMask(m *grid.Mask, n []int) error {
	if m == nil {
		return nil
	}
	if len(m.Dims) != len(n) {
		return fmt.Errorf("core: mask rank %d != grid rank %d", len(m.Dims), len(n))
	}
	for k := range n {
		if m.Dims[k] != n[k] {
			return fmt.Errorf("core: mask extents %v != grid extents %v", m.Dims, n)
		}
	}
	m.Finalize()
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
