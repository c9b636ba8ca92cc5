package core

import (
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
)

// visitor is an executor body. visit runs one block visit of the
// schedule on lane l, whose lo/hi hold the visit's clipped, non-empty
// box and whose full flag says the block's mask class is full (always
// true without a mask). par is the parity of the buffer holding the
// visit's input time level (the output goes to the other one), and n
// is the box's active point count when the block is mixed (never 0);
// for a full block it is the box's volume while telemetry is enabled
// and 0 otherwise.
type visitor interface {
	visit(l *lane, par, n int)
}

// lane is one pool worker's state for a run: box scratch for the
// walker and the bodies, the kernel-call tally the walker flushes to
// telemetry after each work item, and the pipeline body's per-worker
// buffers. Lanes are allocated once per run, so no visit allocates.
type lane struct {
	lo, hi   []int // the visit's clipped box
	rel, ext []int // a uniform group's hoisted box offset and extent
	slo, shi []int // a grown stage box (and groupPlan scratch)
	qlo, qhi []int // a mask segment, row odometer, block hull or fill box
	odo      []int // fillBox's row odometer

	full  bool // the visit's block is fully active over the region
	calls callTally

	x0    int            // the visit's dimension-0 shift (see pipeBody.rebase)
	tmp   [][]float64    // materialized intermediate slots
	strip []float64      // a fused pair's strip
	bufs  [2][]stageBufs // per input parity, each stage's buffers
	vbufs []stageBufs    // the visit's rebased buffers (tile-local slots)

	_ [64]byte // keep neighbouring lanes' hot fields off one cache line
}

// newLanes returns one lane per worker with d-dimensional box scratch.
func newLanes(workers, d int) []lane {
	lanes := make([]lane, workers)
	const boxes = 9       // the lane's d-length scratch slices
	stride := boxes*d + 8 // a cache line apart, like the lanes
	ints := make([]int, stride*workers)
	for w := range lanes {
		s := ints[stride*w:]
		next := func() []int {
			v := s[:d:d]
			s = s[d:]
			return v
		}
		l := &lanes[w]
		l.lo, l.hi, l.rel, l.ext = next(), next(), next(), next()
		l.slo, l.shi, l.qlo, l.qhi = next(), next(), next(), next()
		l.odo = next()
	}
	return lanes
}

// Pass is one step of a region's pass plan, which lets a caller
// interleave its own work with a region's blocks: Before (if non-nil)
// runs on the walking goroutine, then the walker visits Blocks,
// ascending indices into the region's block list. A distributed rank's
// plan visits only the blocks of its slab and runs its halo exchange
// in Before.
type Pass struct {
	Before func() error
	Blocks []int
}

// walk is the region loop of every tessellated executor. Per region it
// checks the stop flag and runs the region's block groups over the
// pool's sticky mapping — all of them, or with a non-nil plan the
// passes plan[ri] in order. Under a mask it classifies each block once
// per region (lane.classify): empty blocks are skipped, full ones run
// every visit on the full-box path with no further count, and only
// mixed ones count each visit's box with one CountBox, skipping the
// frozen ones. grow is the largest growth of a stage box over the
// visit's box (nil for none). For each block visit it computes the
// clipped box once — replaying groupPlan's hoisted representative box
// as a pure origin offset for interior blocks of a uniform group — and
// calls v. It tallies points and kernel calls into telemetry and
// advances *step by the schedule's step count once the run completes.
func walk(sched *Schedule, step *int, pool *par.Pool, lanes []lane, m *grid.Mask, grow []int, stop *atomic.Bool, plan [][]Pass, v visitor) error {
	cfg := &sched.cfg
	pb := *step & 1 // buffer parity: current values live in Buf[pb]
	for ri := range sched.regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := &sched.regions[ri]
		sp := beginRegion()
		nb := len(r.Blocks)
		if plan == nil {
			pool.ForSticky(r.Tasks(), func(gi, wkr int) {
				b0, b1 := r.Span(gi)
				lanes[wkr].visitGroup(cfg, r, b0, b1, m, grow, sp, wkr, pb, v)
			})
		} else {
			nb = 0
			for _, ps := range plan[ri] {
				if ps.Before != nil {
					if err := ps.Before(); err != nil {
						return err
					}
				}
				spans := r.groups(ps.Blocks)
				pool.ForSticky(len(spans), func(i, wkr int) {
					lanes[wkr].visitGroup(cfg, r, spans[i][0], spans[i][1], m, grow, sp, wkr, pb, v)
				})
				nb += len(ps.Blocks)
			}
		}
		sp.end(cfg, r, ri, nb)
	}
	*step += sched.steps
	return nil
}

// visitGroup runs every visit of the blocks [b0, b1) of region r on
// worker wkr's lane l, and tallies the points and kernel calls into sp.
func (l *lane) visitGroup(c *Config, r *Region, b0, b1 int, m *grid.Mask, grow []int, sp *regionSpan, wkr, pb int, v visitor) {
	lo, hi, rel, ext := l.lo, l.hi, l.rel, l.ext
	// Hoisting pays only when a group has blocks to share it.
	uniform, interior := false, uint64(0)
	if b1-b0 > 1 {
		uniform, interior = c.groupPlan(r, b0, b1, lo, hi, l.slo, l.shi)
	}
	full, skip := ^uint64(0), uint64(0)
	if m != nil {
		full, skip = l.classify(c, r, b0, b1, m, grow)
	}
	var pts int64
	for t := r.T0; t < r.T1; t++ {
		if uniform {
			// One bounds computation covers the whole group: every
			// block's box is the same origin offset.
			rep := &r.Blocks[b0]
			c.Bounds(r, rep, t, lo, hi)
			empty := false
			for k := range lo {
				rel[k], ext[k] = lo[k]-rep.Origin[k], hi[k]-lo[k]
				empty = empty || ext[k] <= 0
			}
			if empty {
				continue
			}
		}
		for bi := b0; bi < b1; bi++ {
			bit := uint64(1) << uint(bi-b0)
			if skip&bit != 0 {
				continue
			}
			b := &r.Blocks[bi]
			if uniform && interior&bit != 0 {
				for k := range lo {
					lo[k] = b.Origin[k] + rel[k]
					hi[k] = lo[k] + ext[k]
				}
			} else if !c.ClippedBounds(r, b, t, lo, hi) {
				continue
			}
			n := 0
			if l.full = full&bit != 0; !l.full {
				if n = m.CountBox(lo, hi); n == 0 {
					continue
				}
			} else if sp != nil {
				n = int(boxVolume(lo, hi))
			}
			pts += int64(n)
			v.visit(l, (t+pb)&1, n)
		}
	}
	sp.addPoints(wkr, pts)
	sp.addKernelCalls(wkr, l.calls.rows, l.calls.blocks, l.calls.simds)
	l.calls = callTally{}
}

// classify sorts the blocks [b0, b1) of region r into m's classes for
// the whole region: bit bi-b0 of full is set when every point the
// block's visits may touch is active, and of empty when none is. The
// points are the block's hull — the bounding box of its boxes at the
// window's extreme times (Region.extremes) — grown by grow per side
// and clipped to the domain, so one CountBox covers every visit's box
// and every grown stage box.
func (l *lane) classify(c *Config, r *Region, b0, b1 int, m *grid.Mask, grow []int) (full, empty uint64) {
	ts, nt := r.extremes()
	lo, hi, hlo, hhi := l.slo, l.shi, l.qlo, l.qhi
	for bi := b0; bi < b1; bi++ {
		b := &r.Blocks[bi]
		for i := 0; i < nt; i++ {
			c.Bounds(r, b, ts[i], lo, hi)
			for k := range lo {
				if i == 0 || lo[k] < hlo[k] {
					hlo[k] = lo[k]
				}
				if i == 0 || hi[k] > hhi[k] {
					hhi[k] = hi[k]
				}
			}
		}
		for k, g := range grow {
			hlo[k] -= g
			hhi[k] += g
		}
		bit := uint64(1) << uint(bi-b0)
		if !ClipBox(hlo, hhi, c.N) {
			empty |= bit
			continue
		}
		switch n := m.CountBox(hlo, hhi); {
		case n == 0:
			empty |= bit
		case int64(n) == boxVolume(hlo, hhi):
			full |= bit
		}
	}
	return full, empty
}
