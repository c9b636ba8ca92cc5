package core

import (
	"slices"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Pipeline execution. A stencil.Pipeline's logical time step is a
// chain of atomic stages (a plain stencil is the one-stage chain); the
// pipeline body here fuses the whole chain into each block visit the
// walker hands it, on a schedule built for the pipeline's COMPOUND
// slope (the per-dimension sum of stage slopes).
//
// Geometry: let F be the box a single-stage schedule of the compound
// slope would write at this visit (Config.Bounds), and grow[i] the sum
// of the slopes of every stage after i (Pipeline.SuffixSlopes). Stage
// i executes on F inflated by grow[i] per side, clipped to the domain:
//
//   - the final stage (grow = 0) writes exactly F — the schedule's
//     proven exactly-once write set (Theorem 3.5);
//   - stage i's reads of stage j's output (j < i) are contained in
//     F+grow[j]: every intermediate read hits points THIS visit
//     already computed, so intermediates never cross visits;
//   - stage reads of the state land on F+grow[0] ⊆ the single-stage
//     read footprint of the compound slope, whose availability is the
//     schedule's proven correctness condition.
//
// Intermediates live in per-worker slots sharing the grid's layout
// across dimensions 1.. (so stage kernels run unmodified with grid
// strides). Slots are private to a worker and recomputed per visit:
// concurrent blocks share no intermediate state, so the fused run is
// race-free by construction — the overlap rings are recomputed instead
// of communicated, the standard trade of overlapped temporal blocking.
// The naive oracle defines an intermediate's value outside the domain
// and at inactive points as Pipeline.TmpHalo.
//
// When every stencil stage is rebasable (stencil.Rebasable), a slot
// holds only the rows (2D), planes (3D) or cells (1D) of dimension 0
// that one visit can touch: Big[0] + 2*grow + 2*H of them, grow the
// largest growth along dimension 0 and H the grid's halo there. Each
// visit rebases it by a dimension-0 index shift (rebase), the way
// RunSlab shifts a slab's boxes, so one slot serves every tile. Its
// halo cells along the other dimensions sit at fixed places and are
// never written, so they keep the TmpHalo they are allocated with; the
// cells a later stage reads but this visit never writes are reset to
// TmpHalo per visit: the rows or planes of the grown box beyond the
// domain along dimension 0 (resetRows), and the inactive gaps of mixed
// boxes (segments). A kernel that is not rebasable may read captured
// per-cell data at the grid index it is given, so its pipeline keeps
// one grid-sized slot per intermediate, TmpHalo-filled once per run,
// whose halo and inactive cells are never written.
//
// Stencil→blend pairs whose stencil is rebasable (fusedPairs) run as
// one strip-mined body instead: the stencil's resolved kernel writes a
// strip — a chunk of the row in 1D, two rows in 2D, two pencils of one
// plane in 3D — into a small per-worker buffer, and BlendRow consumes it at once.
// The kernel input, the blend's other input and the output are all
// rebased by one offset so the four buffers share a single index. The
// blend is pointwise over the same box and the same mask segments as
// the stencil, so it reads only strip cells the kernel has just
// written; the pair's intermediate slot is never materialized, needs
// no scratch and has no TmpHalo to keep.

// fusedPairs returns the stage pairs the pipeline body runs as one.
// fused[i] is true when stage i applies a rebasable spec
// (stencil.Rebasable), stage i+1 is a blend reading slot i+1 (through
// In, InB or both), and no later stage reads slot i+1. The plan is a
// pure function of the stage wiring and the specs; a blend's slope is
// 0, so the pair shares one box and the geometry is unchanged. A spec
// that is not rebasable may read captured per-cell data at the grid
// index it is given, which a strip's shifted index would misplace, so
// its stage keeps a materialized slot.
func fusedPairs(p *stencil.Pipeline) []bool {
	fused := make([]bool, len(p.Stages))
	for i := 0; i+1 < len(p.Stages); i++ {
		bl := &p.Stages[i+1]
		if !stencil.Rebasable(p.Stages[i].Spec) || bl.Spec != nil || (bl.In != i+1 && bl.InB != i+1) {
			continue
		}
		fused[i] = true
		for _, st := range p.Stages[i+2:] {
			if st.In == i+1 || (st.Spec == nil && st.InB == i+1) {
				fused[i] = false
				break
			}
		}
	}
	return fused
}

// pipeBody is the walker body of a pipeline run: the stage loop of one
// block visit, shared by every dimension. The dimension-specific part
// — applying one stage (or fused pair) to a box — is dim.
type pipeBody struct {
	p       *stencil.Pipeline
	sched   *Schedule
	grow    [][]int // per-stage growth (SuffixSlopes); nil where zero
	fused   []bool
	outSlot []bool         // stage i (or its fused pair) writes a materialized slot
	path    stencil.Path   // the run's dispatch ceiling, sampled once
	kpath   []stencil.Path // each stencil stage's resolved path
	m       *grid.Mask
	buf     [2][]float64 // the state grid's parity buffers
	dim     boxer
	slab    // the grid's place in the domain; zero for the whole domain

	// The grid's layout: point p of the domain lives at flat index
	// sum_k (p[k]+halo[k])*stride[k], dimension 0 shifted by x0.
	stride, halo []int
	tile         bool // slots are tile-local (see rebase)
	reach0       int  // the largest growth along dimension 0
}

// boxer applies stage i of b's pipeline — with stage i+1 when
// b.fused[i] — to the box [lo, hi) on the buffers sb, using l's strip
// and dimension-0 shift and tallying kernel calls in l.
type boxer interface {
	box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane)
}

// stageBufs are the buffers stage i (a fused pair: the stencil's input
// and the blend's inputs and output) reads and writes at one input
// parity: in is the stencil input, ia and ib the blend inputs (nil for
// a fused pair's unmaterialized slot) and out the output, the state's
// destination for the final stage. Bit j of state is set when the j-th
// of in, out, ia, ib is a state buffer, which rebase shifts.
type stageBufs struct {
	in, out, ia, ib []float64
	state           uint8
}

// newPipeBody prepares a validated pipeline for one run over sched on
// a grid of the given layout, placed in the domain by sl (nil: the
// whole domain). One path per run: it is sampled here, never re-read,
// so a concurrent SetKernelPath cannot mix dispatch shapes within a
// run.
func newPipeBody(p *stencil.Pipeline, sched *Schedule, m *grid.Mask, buf [2][]float64, sl *slab, stride, halo []int) *pipeBody {
	grow := p.SuffixSlopes()
	reach0 := grow[0][0]
	for i, g := range grow {
		if slices.Max(g) == 0 {
			grow[i] = nil
		}
	}
	b := &pipeBody{
		p: p, sched: sched, grow: grow, fused: fusedPairs(p), outSlot: make([]bool, len(p.Stages)),
		path: runPath(), kpath: make([]stencil.Path, len(p.Stages)), m: m, buf: buf,
		stride: stride, halo: halo, reach0: reach0,
	}
	b.tile = true
	for i, st := range p.Stages {
		last := i
		if b.fused[i] {
			last = i + 1
		}
		b.outSlot[i] = last < len(p.Stages)-1 && !b.fused[last]
		b.tile = b.tile && (st.Spec == nil || stencil.Rebasable(st.Spec))
	}
	// Without a materialized slot there is nothing to rebase.
	b.tile = b.tile && slices.Contains(b.outSlot, true)
	if sl != nil {
		b.slab = *sl
	}
	return b
}

// slotLen returns the length of one materialized slot: the grid's for
// a positional pipeline, else the Big[0] + 2*reach0 + 2*halo[0] rows
// of dimension 0 a visit may touch (no more than the grid holds).
func (b *pipeBody) slotLen() int {
	n := len(b.buf[0])
	if !b.tile {
		return n
	}
	rows := b.sched.cfg.Big[0] + 2*b.reach0 + 2*b.halo[0]
	return min(rows*b.stride[0], n)
}

// run walks the schedule with one lane per worker, carrying the
// scratch newScratch sizes and every stage's buffers resolved for both
// parities, so visits resolve none.
func (b *pipeBody) run(pool *par.Pool, stripLen int, step *int, stop *atomic.Bool) error {
	lanes := newLanes(pool.Workers(), len(b.sched.cfg.N))
	newScratch(lanes, b.p, b.fused, b.slotLen(), stripLen)
	nst, sets := len(b.p.Stages), 2 // a set per parity, and the visit's if tile
	if b.tile {
		sets = 3
	}
	all := make([]stageBufs, sets*nst*len(lanes))
	for w := range lanes {
		l := &lanes[w]
		l.x0 = b.x0
		if b.tile {
			l.vbufs, all = all[:nst:nst], all[nst:]
		}
		for par := range l.bufs {
			src, dst := b.buf[par], b.buf[par^1]
			l.bufs[par], all = all[:nst:nst], all[nst:]
			for i := range b.p.Stages {
				st, bl, last := &b.p.Stages[i], &b.p.Stages[i], i
				if b.fused[i] {
					bl, last = &b.p.Stages[i+1], i+1
				}
				sb := &l.bufs[par][i]
				sb.out, sb.state = dst, 1<<1
				if last < nst-1 {
					sb.out, sb.state = l.tmp[last], 0
				}
				var s0, s2, s3 uint8
				sb.in, s0 = pickSlot(st.In, l.tmp, src, dst)
				sb.ia, s2 = pickSlot(bl.In, l.tmp, src, dst)
				sb.ib, s3 = pickSlot(bl.InB, l.tmp, src, dst)
				sb.state |= s0 | s2<<2 | s3<<3
			}
		}
	}
	var grow []int
	if b.m != nil {
		grow = b.grow[0]
	}
	return walk(b.sched, step, pool, lanes, b.m, grow, stop, b.plan, b)
}

// newScratch gives each lane a TmpHalo-filled slot of slotLen cells
// per materialized intermediate (nil for a fused pair's slot, which is
// never materialized), and a stripLen strip if the pipeline has a
// fused pair.
func newScratch(lanes []lane, p *stencil.Pipeline, fused []bool, slotLen, stripLen int) {
	for w := range lanes {
		l := &lanes[w]
		l.tmp = make([][]float64, p.NumTmp())
		for j := range l.tmp {
			if fused[j] {
				continue
			}
			l.tmp[j] = make([]float64, slotLen)
			fill(l.tmp[j], p.TmpHalo)
		}
		if slices.Contains(fused, true) {
			l.strip = make([]float64, stripLen)
		}
	}
}

// visit runs every stage of one block visit whose final write box is
// l's [lo, hi) with n active points. Stage i runs on that box grown by
// grow[i] and clipped to the domain (the box itself for zero-growth
// stages, which reuse the walker's count n). Fully active stage boxes
// take one full-box call; a full block's boxes all are, and a mixed
// block counts each grown box, skipping the frozen ones and running
// the mixed ones row group by row group (segments).
func (b *pipeBody) visit(l *lane, par, n int) {
	bufs := l.bufs[par]
	if b.tile {
		bufs = b.rebase(l, bufs)
	}
	for i := range bufs {
		if i > 0 && b.fused[i-1] {
			continue // ran inside stage i-1's fused body
		}
		lo, hi, cnt := l.lo, l.hi, n
		g := b.grow[i]
		if g != nil {
			lo, hi = l.slo, l.shi
			for k := range lo {
				lo[k], hi[k] = l.lo[k]-g[k], l.hi[k]+g[k]
			}
			ClipBox(lo, hi, b.sched.cfg.N)
			if !l.full {
				cnt = b.m.CountBox(lo, hi)
			}
		}
		full := l.full || int64(cnt) == boxVolume(lo, hi)
		if !full && cnt == 0 {
			continue // no later stage reads a frozen box
		}
		if b.tile && b.outSlot[i] && g != nil {
			b.resetRows(l, bufs[i].out, g)
		}
		if full {
			b.dim.box(b, i, lo, hi, &bufs[i], l)
		} else {
			b.segments(i, lo, hi, &bufs[i], l)
		}
	}
}

// rebase places the visit's tile-local slots: it sets l's dimension-0
// shift x0 so that domain row x lives at row x-x0 of every buffer (at
// x-x0+H counting the halo H), and returns the visit's buffers, the
// state ones sliced by x0-b.x0 rows. The visit reads the state at most
// H rows below its box and writes or reads a slot at most reach0, so
// x0 = lo[0]-reach0, or the grid's first row if that is higher, keeps
// every index non-negative; the slot's Big[0]+2*reach0+2*H rows then
// reach past the box's top row plus reach0+H.
func (b *pipeBody) rebase(l *lane, bufs []stageBufs) []stageBufs {
	r0 := max(0, l.lo[0]-b.x0-b.reach0)
	l.x0 = b.x0 + r0
	sh := r0 * b.stride[0]
	for i := range bufs {
		v := bufs[i]
		if v.state&1 != 0 {
			v.in = v.in[sh:]
		}
		if v.state&2 != 0 {
			v.out = v.out[sh:]
		}
		if v.state&4 != 0 {
			v.ia = v.ia[sh:]
		}
		if v.state&8 != 0 {
			v.ib = v.ib[sh:]
		}
		l.vbufs[i] = v
	}
	return l.vbufs
}

// resetRows writes TmpHalo over the part of the tile-local slot out
// that lies beyond the domain along dimension 0 within the visit's box
// grown by g: later stages read it as out-of-domain intermediate
// values, and an earlier visit may have left a row of the domain there.
func (b *pipeBody) resetRows(l *lane, out []float64, g []int) {
	n0 := b.sched.cfg.N[0]
	x0, x1 := l.lo[0]-g[0], l.hi[0]+g[0]
	if x0 >= 0 && x1 <= n0 {
		return
	}
	lo, hi := l.qlo, l.qhi
	for k := range lo {
		lo[k], hi[k] = l.lo[k]-g[k], l.hi[k]+g[k]
	}
	if x0 < 0 {
		hi[0] = 0
		b.fillBox(l, out, lo, hi)
	}
	if x1 > n0 {
		lo[0], hi[0] = n0, x1
		b.fillBox(l, out, lo, hi)
	}
}

// fillBox writes TmpHalo over the box [lo, hi) of the slot buf, row by
// row of the unit-stride dimension.
func (b *pipeBody) fillBox(l *lane, buf []float64, lo, hi []int) {
	z := len(lo) - 1
	p := l.odo
	copy(p, lo)
	for {
		i := b.index(l, p)
		fill(buf[i:i+hi[z]-lo[z]], b.p.TmpHalo)
		if !nextRow(p, lo, hi) {
			return
		}
	}
}

// index returns the flat index of domain point p in l's visit frame.
func (b *pipeBody) index(l *lane, p []int) int {
	i := -l.x0 * b.stride[0]
	for k, v := range p {
		i += (v + b.halo[k]) * b.stride[k]
	}
	return i
}

// fill sets every element of s to v.
func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

// segments runs stage i on the active points of the mixed box
// [lo, hi). Consecutive rows whose mask bits are identical (the mask's
// row-run table) form one group, and each maximal active run of the
// unit-stride dimension is one box call over every row of the group:
// each active point gets bitwise the arithmetic of a full-box call and
// no inactive one is written. On a tile-local slot that a later stage
// reads around its points (a grown stage), the inactive gaps of each
// group are filled with TmpHalo instead (fillGap), since the slot may
// hold another tile's values there.
func (b *pipeBody) segments(i int, lo, hi []int, sb *stageBufs, l *lane) {
	q0, q1 := l.qlo, l.qhi
	z := len(lo) - 1
	y := z - 1 // the dimension a row group spans; -1 in 1D
	gaps := b.tile && b.outSlot[i] && b.grow[i] != nil
	copy(q0, lo)
	for {
		row := 0
		for k := 0; k < z; k++ {
			row = row*b.m.Dims[k] + q0[k]
			q1[k] = q0[k] + 1
		}
		rows := 1
		if y >= 0 {
			q1[y] = min(q0[y]+b.m.RowRun(row), hi[y])
			rows = q1[y] - q0[y]
		}
		for a := lo[z]; a < hi[z]; a = q1[z] {
			q0[z], q1[z] = b.m.NextRun(row, a, hi[z])
			if gaps && q0[z] > a {
				b.fillGap(l, sb.out, q0, a, rows)
			}
			if q0[z] < hi[z] {
				b.dim.box(b, i, q0, q1, sb, l)
			}
		}
		if y >= 0 {
			q0[y] = q1[y] - 1 // nextRow steps past the group
		}
		if !nextRow(q0, lo, hi) {
			return
		}
	}
}

// fillGap writes TmpHalo over the inactive unit-stride cells [a, q0[z])
// of the rows rows from q0 on (stepping along the second-to-last
// dimension) in the slot buf, where a later stage may read them.
func (b *pipeBody) fillGap(l *lane, buf []float64, q0 []int, a, rows int) {
	z := len(q0) - 1
	e := q0[z]
	q0[z] = a
	i := b.index(l, q0)
	q0[z] = e
	step := 0
	if z > 0 {
		step = b.stride[z-1]
	}
	for r := 0; r < rows; r++ {
		fill(buf[i:i+e-a], b.p.TmpHalo)
		i += step
	}
}

// pickSlot resolves a stage input slot to its backing buffer (nil for
// a fused pair's unmaterialized slot) and reports 1 when it is a state
// buffer.
func pickSlot(slot int, tmp [][]float64, src, dst []float64) ([]float64, uint8) {
	switch slot {
	case stencil.PrevState:
		return dst, 1
	case 0:
		return src, 1
	default:
		return tmp[slot-1], 0
	}
}

// blendStrip applies the fused blend bl to rows strip rows of n points,
// the first at strip index lo and the rest stride apart. sb's out, ia
// and ib are whole grid-layout buffers whose index off+i strip index i
// stands for; a nil input is the pair's unmaterialized slot, i.e. the
// strip itself.
func blendStrip(bl *stencil.Stage, sb *stageBufs, strip []float64, off, lo, rows, n, stride int) {
	a, b := strip, strip
	if sb.ia != nil {
		a = sb.ia[off:]
	}
	if sb.ib != nil {
		b = sb.ib[off:]
	}
	o := sb.out[off:]
	for r := 0; r < rows; r++ {
		stencil.BlendRow(o, a, bl.A, b, bl.B, lo, lo+n)
		lo += stride
	}
}

// strip1D is the point count of a 1D fused strip: 4 KiB of float64,
// small enough to stay in L1 between the kernel and the blend.
const strip1D = 512

// callTally counts a worker's kernel calls by dispatch path, the row
// path per row (a block or vector call covers a whole box or strip).
type callTally struct{ rows, blocks, simds int64 }

func (c *callTally) add(p stencil.Path, rows int64) {
	switch p {
	case stencil.PathSIMD:
		c.simds++
	case stencil.PathBlock:
		c.blocks++
	default:
		c.rows += rows
	}
}

// box1D applies 1D stages; kernel indices are offset by the halo h
// and shifted by the visit's x0.
type box1D struct {
	kern []stencil.Kernel1DBlock
	h    int
}

func (k *box1D) box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane) {
	st, h := &b.p.Stages[i], k.h
	switch {
	case b.fused[i]:
		for c := lo[0] - l.x0; c < hi[0]-l.x0; c += strip1D {
			n := min(strip1D, hi[0]-l.x0-c)
			k.kern[i](l.strip, sb.in[c:], h, h+n)
			blendStrip(&b.p.Stages[i+1], sb, l.strip, c, h, 1, n, 0)
			l.calls.add(b.kpath[i], 1)
		}
	case st.Spec != nil:
		k.kern[i](sb.out, sb.in, lo[0]-l.x0+h, hi[0]-l.x0+h)
		l.calls.add(b.kpath[i], 1)
	default:
		stencil.BlendRow(sb.out, sb.ia, st.A, sb.ib, st.B, lo[0]-l.x0+h, hi[0]-l.x0+h)
	}
}

// box2D applies 2D stages. Boxes are in domain coordinates; the
// visit's buffers hold the dimension-0 rows from l.x0 on.
type box2D struct {
	kern  []stencil.Kernel2DBlock
	g     *grid.Grid2D
	reach int // strip index of interior point (0, 0)
}

func (k *box2D) box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane) {
	st, g := &b.p.Stages[i], k.g
	base := g.Idx(lo[0]-l.x0, lo[1])
	nx, ny := hi[0]-lo[0], hi[1]-lo[1]
	switch {
	case b.fused[i]:
		// Row pairs keep the kernels' cross-row register reuse; an odd
		// box ends with a one-row strip.
		for x := 0; x < nx; x += 2 {
			rows := min(2, nx-x)
			off := base + x*g.SY - k.reach
			k.kern[i](l.strip, sb.in[off:], k.reach, rows, ny, g.SY)
			blendStrip(&b.p.Stages[i+1], sb, l.strip, off, k.reach, rows, ny, g.SY)
			l.calls.add(b.kpath[i], int64(rows))
		}
	case st.Spec != nil:
		k.kern[i](sb.out, sb.in, base, nx, ny, g.SY)
		l.calls.add(b.kpath[i], int64(nx))
	default:
		for x := 0; x < nx; x++ {
			stencil.BlendRow(sb.out, sb.ia, st.A, sb.ib, st.B, base, base+ny)
			base += g.SY
		}
	}
}

// box3D is box2D for 3D stages.
type box3D struct {
	kern  []stencil.Kernel3DBlock
	g     *grid.Grid3D
	reach int // strip index of interior point (0, 0, 0)
}

func (k *box3D) box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane) {
	st, g := &b.p.Stages[i], k.g
	xBase := g.Idx(lo[0]-l.x0, lo[1], lo[2])
	nx, ny, nz := hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
	switch {
	case b.fused[i]:
		// Pencil pairs within one plane keep the kernels' cross-pencil
		// reuse; an odd plane ends with a one-pencil strip.
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y += 2 {
				rows := min(2, ny-y)
				off := xBase + x*g.SX + y*g.SY - k.reach
				k.kern[i](l.strip, sb.in[off:], k.reach, 1, rows, nz, g.SY, g.SX)
				blendStrip(&b.p.Stages[i+1], sb, l.strip, off, k.reach, rows, nz, g.SY)
				l.calls.add(b.kpath[i], int64(rows))
			}
		}
	case st.Spec != nil:
		k.kern[i](sb.out, sb.in, xBase, nx, ny, nz, g.SY, g.SX)
		l.calls.add(b.kpath[i], int64(nx)*int64(ny))
	default:
		for x := 0; x < nx; x++ {
			base := xBase
			for y := 0; y < ny; y++ {
				stencil.BlendRow(sb.out, sb.ia, st.A, sb.ib, st.B, base, base+nz)
				base += g.SY
			}
			xBase += g.SX
		}
	}
}
