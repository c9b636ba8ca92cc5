package dist

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Partition describes one rank's share of the global x range.
type Partition struct {
	X0, X1 int // territory [X0, X1)
	ExtLo  int // exchange-halo width below X0 (clipped at the domain)
	ExtHi  int // exchange-halo width above X1
}

// Width returns the territory width.
func (p Partition) Width() int { return p.X1 - p.X0 }

// Slabs partitions [0, nx) into nranks contiguous slabs and attaches
// exchange halos of width h. Every interior slab must be at least h
// wide (a rank only talks to its immediate neighbours).
func Slabs(nx, nranks, h int) ([]Partition, error) {
	if nranks < 1 {
		return nil, fmt.Errorf("dist: nranks=%d", nranks)
	}
	if nx/nranks < h && nranks > 1 {
		return nil, fmt.Errorf("dist: slab width %d < exchange halo %d; use fewer ranks or smaller blocks", nx/nranks, h)
	}
	parts := make([]Partition, nranks)
	for r := 0; r < nranks; r++ {
		x0 := r * nx / nranks
		x1 := (r + 1) * nx / nranks
		parts[r] = Partition{
			X0:    x0,
			X1:    x1,
			ExtLo: min(h, x0),
			ExtHi: min(h, nx-x1),
		}
	}
	return parts, nil
}

// Rank executes one share of a distributed 2D or 3D tessellation run,
// slab-decomposed along dimension 0. It replays the global schedule
// through core's region walker on its local slab, visiting only the
// blocks that touch its territory and exchanging strips of h whole
// dimension-0 planes with its neighbours before each region.
type Rank struct {
	ID, NRanks int
	tr         Transport
	part       Partition
	cfg        *core.Config // global configuration
	spec       *stencil.Spec
	pool       *par.Pool
	local      grid.View // planes [X0-ExtLo, X1+ExtHi) of the domain
	h          int       // exchange-halo width
	ex         *exchanger
	overlap    bool
	span       telemetry.Event // the open interior or halo span
	spanStart  time.Time
	// Stats, mirrored from the exchanger after each Run.
	MessagesSent int
	FloatsSent   int64
}

// ExchangeHalo returns the strip width the scheme needs: a block
// intersecting the territory extends at most Big-1 planes beyond it
// and reads slope further.
func ExchangeHalo(cfg *core.Config) int { return cfg.Big[0] + cfg.Slopes[0] }

// NewRank prepares rank id of nranks for the global configuration and
// a 2D or 3D stencil whose dimension and slopes match it. workers sets
// the per-rank pool size.
func NewRank(id, nranks int, tr Transport, cfg *core.Config, spec *stencil.Spec, workers int) (*Rank, error) {
	if spec.Dims != len(cfg.N) || (spec.Dims != 2 && spec.Dims != 3) {
		return nil, fmt.Errorf("dist: %s is %dD and the config %dD; ranks run 2D and 3D", spec.Name, spec.Dims, len(cfg.N))
	}
	if !slices.Equal(cfg.Slopes, spec.Slopes) {
		return nil, fmt.Errorf("dist: config slopes %v != %s slopes %v", cfg.Slopes, spec.Name, spec.Slopes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := ExchangeHalo(cfg)
	parts, err := Slabs(cfg.N[0], nranks, h)
	if err != nil {
		return nil, err
	}
	p := parts[id]
	r := &Rank{
		ID: id, NRanks: nranks,
		tr:   tr,
		part: p,
		cfg:  cfg,
		spec: spec,
		pool: par.NewPool(workers),
		h:    h,
	}
	nx, s := p.ExtLo+p.Width()+p.ExtHi, spec.Slopes
	if spec.Dims == 2 {
		r.local = grid.NewGrid2D(nx, cfg.N[1], s[0], s[1]).View()
	} else {
		r.local = grid.NewGrid3D(nx, cfg.N[1], cfg.N[2], s[0], s[1], s[2]).View()
	}
	r.local.X0 = p.X0 - p.ExtLo
	r.ex = newExchanger(tr, id, nranks, p, h, 2*h*planeLen(r.local), r.packStrip, r.unpackStrip)
	return r, nil
}

// SetOverlap selects the overlapped exchange: halo swaps run
// concurrently with the region's interior blocks, and only the
// halo-dependent blocks wait for them. Output is bitwise identical to
// the synchronous default. Requires a full-duplex Transport (both
// built-in transports are).
func (r *Rank) SetOverlap(on bool) { r.overlap = on }

// Close releases the rank's worker pool.
func (r *Rank) Close() { r.pool.Close() }

// Partition returns the rank's share.
func (r *Rank) Partition() Partition { return r.part }

// Scatter loads this rank's slab (territory + exchange halos + the
// global constant boundary) from a full copy of the initial grid, a
// *grid.Grid2D or *grid.Grid3D matching the config. In a real
// deployment each rank would construct its slab directly; Scatter
// exists for tests and examples that hold the global state anyway.
func (r *Rank) Scatter(global any) error {
	gv, err := r.globalView(global)
	if err != nil {
		return err
	}
	lv := r.local
	if gv.H[1] < lv.H[1] || gv.H[2] < lv.H[2] {
		return fmt.Errorf("dist: global grid halo %v narrower than the rank's %v", gv.H[:gv.D], lv.H[:lv.D])
	}
	// Whole planes with their rows' halos; planes beyond the domain
	// (possible only at domain ends, where ext is clipped) copy the
	// outermost global halo plane.
	pad := lv.H
	pad[0] = 0
	for x := lv.X0 - lv.H[0]; x < lv.X0+lv.N[0]+lv.H[0]; x++ {
		gx := min(max(x, -gv.H[0]), gv.N[0]+gv.H[0]-1)
		for p := 0; p < 2; p++ {
			copyPlanes(lv.Buf[p], lv, x, gv.Buf[p], gv, gx, 1, pad)
		}
	}
	*lv.Step = *gv.Step
	return nil
}

// Territory copies the rank's owned values (current buffer) into dst,
// a full-size global grid of the rank's dimension; used to gather
// results.
func (r *Rank) Territory(dst any) error {
	dv, err := r.globalView(dst)
	if err != nil {
		return err
	}
	copyPlanes(dv.Src(0), dv, r.part.X0, r.local.Src(0), r.local, r.part.X0, r.part.Width(), [3]int{})
	return nil
}

// globalView views g, a *grid.Grid2D or *grid.Grid3D, as a grid of the
// config's global extents.
func (r *Rank) globalView(g any) (grid.View, error) {
	var v grid.View
	switch g := g.(type) {
	case *grid.Grid2D:
		v = g.View()
	case *grid.Grid3D:
		v = g.View()
	default:
		return v, fmt.Errorf("dist: %T is not a *grid.Grid2D or *grid.Grid3D", g)
	}
	if !slices.Equal(v.Extents(), r.cfg.N) {
		return v, fmt.Errorf("dist: global grid %v != config %v", v.Extents(), r.cfg.N)
	}
	return v, nil
}

// Run advances the rank's slab by steps time steps. All ranks must call
// Run with the same arguments; the call blocks on neighbour exchanges.
// The rank resolves its kernel from its stencil here, at run time.
func (r *Rank) Run(steps int) error {
	sched, err := core.NewSchedule(r.cfg, steps)
	if err != nil {
		return err
	}
	regs := sched.Regions()
	plan := make([][]core.Pass, len(regs))
	for ri := range regs {
		reg := &regs[ri]
		mine := selectBlocks(r.cfg, reg, r.part)
		if !r.overlap || r.NRanks == 1 {
			plan[ri] = []core.Pass{{Before: r.exchange, Blocks: mine}}
			continue
		}
		halo, interior := splitByHalo(r.cfg, reg, mine, r.part, r.ID, r.NRanks)
		plan[ri] = []core.Pass{
			{Before: func() error {
				r.ex.start()
				r.openSpan("interior", len(interior))
				return nil
			}, Blocks: interior},
			{Before: func() error {
				r.closeSpan()
				if err := r.waitExchange(); err != nil {
					return err
				}
				r.openSpan("halo", len(halo))
				return nil
			}, Blocks: halo},
		}
	}
	err = core.Run(r.local, stencil.OneStage(r.spec), sched, r.pool, nil, nil, plan)
	r.closeSpan()
	r.MessagesSent, r.FloatsSent = r.ex.messages, r.ex.floats
	return err
}

// openSpan starts a compute-lane span over a pass of blocks blocks,
// closing the previous one, so traces of overlapped runs show
// "interior" under the in-flight exchange and "halo" after it.
func (r *Rank) openSpan(name string, blocks int) {
	r.closeSpan()
	if blocks > 0 && telemetry.Enabled() {
		r.span = telemetry.Event{Name: name, Cat: "dist", TID: r.ID, Phase: -1, Stage: -1, Blocks: int64(blocks)}
		r.spanStart = time.Now()
	}
}

// closeSpan records the open span, if any.
func (r *Rank) closeSpan() {
	if r.span.Name != "" {
		telemetry.DefaultTracer.RecordSpan(r.span, r.spanStart)
		r.span.Name = ""
	}
}

// selectBlocks returns the indices of the region's blocks whose
// maximal x extent intersects the territory. The glued-in-x blocks sit
// half a lattice period to the right of their tile origin.
func selectBlocks(c *core.Config, reg *core.Region, part Partition) []int {
	var mine []int
	for bi := range reg.Blocks {
		b := &reg.Blocks[bi]
		xlo := b.Origin[0]
		if !reg.Diamond && b.Glued&1 != 0 {
			xlo += c.Spacing(0) / 2
		}
		if xlo < part.X1 && xlo+c.Big[0] > part.X0 {
			mine = append(mine, bi)
		}
	}
	return mine
}

// splitByHalo partitions a rank's block list into halo-dependent and
// interior sets. A block is interior iff its dimension-0 read
// footprint over the whole region window — the exact update extent
// from core.WindowExtent0 padded by the stencil slope, clipped to the
// domain — avoids both exchange strips [X0-h, X0) and [X1, X1+h).
// Interior blocks therefore read nothing an in-flight exchange will
// overwrite and write nothing the strips snapshot, so they can run
// while the exchange is airborne without perturbing a single bit
// (region independence covers the reordering against halo blocks).
func splitByHalo(c *core.Config, reg *core.Region, mine []int, part Partition, id, nranks int) (halo, interior []int) {
	s := c.Slopes[0]
	for _, bi := range mine {
		b := &reg.Blocks[bi]
		lo, hi, ok := c.WindowExtent0(reg, b)
		if !ok { // updates nothing in this window
			interior = append(interior, bi)
			continue
		}
		rlo, rhi := lo-s, hi+s
		if rlo < 0 {
			rlo = 0
		}
		if rhi > c.N[0] {
			rhi = c.N[0]
		}
		if (id > 0 && rlo < part.X0) || (id < nranks-1 && rhi > part.X1) {
			halo = append(halo, bi)
		} else {
			interior = append(interior, bi)
		}
	}
	return halo, interior
}

// exchange runs the synchronous strip swap with both neighbours,
// recording the blocked time.
func (r *Rank) exchange() error {
	if r.NRanks == 1 {
		return nil
	}
	if telemetry.Enabled() {
		start := time.Now()
		err := r.ex.exchangeSync()
		telemetry.DistExchangeSeconds.Observe(time.Since(start).Seconds())
		telemetry.DefaultTracer.RecordSpan(telemetry.Event{
			Name: "exchange", Cat: "dist", TID: r.ID, Phase: -1, Stage: -1,
		}, start)
		return err
	}
	return r.ex.exchangeSync()
}

// waitExchange blocks on the overlapped exchange; only the un-hidden
// remainder counts as exchange time.
func (r *Rank) waitExchange() error {
	if telemetry.Enabled() {
		start := time.Now()
		err := r.ex.wait()
		telemetry.DistExchangeSeconds.Observe(time.Since(start).Seconds())
		return err
	}
	return r.ex.wait()
}

// countTransfer records one strip transfer (floats floats of payload)
// in the per-peer byte and message counters. Exchanges are per-region,
// so the label lookup is far off the point-update hot path.
func countTransfer(dir string, peer, floats int) {
	if !telemetry.Enabled() {
		return
	}
	p := strconv.Itoa(peer)
	telemetry.DistBytes.Counter(dir, p).Add(uint64(8 * floats))
	telemetry.DistMessages.Counter(dir, p).Inc()
}

// packStrip copies the interior rows of the h planes starting at
// global plane gx0, both parity buffers, into buf; unpackStrip is the
// inverse. A strip holds 2*h*planeLen floats.
func (r *Rank) packStrip(gx0 int, buf []float64) {
	w := wire(r.local, 2*r.h)
	for p := 0; p < 2; p++ {
		copyPlanes(buf, w, p*r.h, r.local.Buf[p], r.local, gx0, r.h, [3]int{})
	}
}

func (r *Rank) unpackStrip(gx0 int, buf []float64) {
	w := wire(r.local, 2*r.h)
	for p := 0; p < 2; p++ {
		copyPlanes(r.local.Buf[p], r.local, gx0, buf, w, p*r.h, r.h, [3]int{})
	}
}

// planeLen returns the interior cell count of one dimension-0 plane of
// v.
func planeLen(v grid.View) int { return v.N[1] * v.N[2] }

// wire returns the dense layout of planes planes of v's interior rows,
// numbered from 0: the wire format of strips and gathers, a view with
// no halo and no buffers.
func wire(v grid.View, planes int) grid.View {
	w := grid.View{D: v.D, N: v.N}
	w.N[0] = planes
	w.S[v.D-1] = 1
	for k := v.D - 2; k >= 0; k-- {
		w.S[k] = w.S[k+1] * w.N[k+1]
	}
	return w
}

// copyPlanes copies count dimension-0 planes of src's buffer sb, from
// domain plane sx0 on, into dst's buffer db from plane dx0 on, row by
// row of the unit-stride dimension; the views' other extents must
// agree. Each plane is widened by pad[k] cells per side along every
// dimension k >= 1, so a zero pad moves interior cells only.
func copyPlanes(db []float64, dst grid.View, dx0 int, sb []float64, src grid.View, sx0, count int, pad [3]int) {
	z := src.D - 1
	w := src.N[z] + 2*pad[z]
	var lo, hi [3]int
	for k := 1; k < 3; k++ {
		lo[k], hi[k] = -pad[k], src.N[k]+pad[k]
	}
	hi[z] = lo[z] + 1
	for x := 0; x < count; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			for c := lo[2]; c < hi[2]; c++ {
				d, s := dst.Index([3]int{dx0 + x, y, c}), src.Index([3]int{sx0 + x, y, c})
				copy(db[d:d+w], sb[s:s+w])
			}
		}
	}
}
