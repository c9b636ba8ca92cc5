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
// Intermediates live in per-worker scratch buffers sharing the grid's
// exact layout (so stage kernels run unmodified with grid strides).
// Scratch is private to a worker and recomputed per visit: concurrent
// blocks share no intermediate state, so the fused run is race-free by
// construction — the overlap rings are recomputed instead of
// communicated, the standard trade of overlapped temporal blocking.
// Scratch halo cells (and, under a mask, inactive interior cells) are
// initialised to Pipeline.TmpHalo and never written, which is exactly
// the naive oracle's definition of an intermediate's out-of-domain
// value.
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
	p     *stencil.Pipeline
	sched *Schedule
	grow  [][]int // per-stage growth (SuffixSlopes); nil where zero
	fused []bool
	path  stencil.Path   // the run's dispatch ceiling, sampled once
	kpath []stencil.Path // each stencil stage's resolved path
	m     *grid.Mask
	buf   [2][]float64 // the state grid's parity buffers
	dim   boxer
	slab  // the grid's place in the domain; zero for the whole domain
}

// boxer applies stage i of b's pipeline — with stage i+1 when
// b.fused[i] — to the box [lo, hi) on the buffers sb, using l's strip
// and tallying kernel calls in l.
type boxer interface {
	box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane)
}

// stageBufs are the buffers stage i (a fused pair: the stencil's input
// and the blend's inputs and output) reads and writes at one input
// parity: in is the stencil input, ia and ib the blend inputs (nil for
// a fused pair's unmaterialized slot) and out the output, the state's
// destination for the final stage.
type stageBufs struct{ in, out, ia, ib []float64 }

// newPipeBody prepares a validated pipeline for one run over sched on
// a grid placed in the domain by sl (nil: the whole domain). One path
// per run: it is sampled here, never re-read, so a concurrent
// SetKernelPath cannot mix dispatch shapes within a run.
func newPipeBody(p *stencil.Pipeline, sched *Schedule, m *grid.Mask, buf [2][]float64, sl *slab) *pipeBody {
	grow := p.SuffixSlopes()
	for i, g := range grow {
		if slices.Max(g) == 0 {
			grow[i] = nil
		}
	}
	b := &pipeBody{
		p: p, sched: sched, grow: grow, fused: fusedPairs(p),
		path: runPath(), kpath: make([]stencil.Path, len(p.Stages)), m: m, buf: buf,
	}
	if sl != nil {
		b.slab = *sl
	}
	return b
}

// run walks the schedule with one lane per worker, carrying the
// scratch newScratch sizes from buflen and stripLen and every stage's
// buffers resolved for both parities, so visits resolve none.
func (b *pipeBody) run(pool *par.Pool, buflen, stripLen int, step *int, stop *atomic.Bool) error {
	lanes := newLanes(pool.Workers(), len(b.sched.cfg.N))
	newScratch(lanes, b.p, b.fused, buflen, stripLen)
	nst := len(b.p.Stages)
	all := make([]stageBufs, 2*nst*len(lanes))
	for w := range lanes {
		l := &lanes[w]
		for par := range l.bufs {
			src, dst := b.buf[par], b.buf[par^1]
			l.bufs[par], all = all[:nst:nst], all[nst:]
			for i := range b.p.Stages {
				st, bl, last := &b.p.Stages[i], &b.p.Stages[i], i
				if b.fused[i] {
					bl, last = &b.p.Stages[i+1], i+1
				}
				sb := &l.bufs[par][i]
				sb.out = dst
				if last < nst-1 {
					sb.out = l.tmp[last]
				}
				sb.in = pickSlot(st.In, l.tmp, src, dst)
				sb.ia, sb.ib = pickSlot(bl.In, l.tmp, src, dst), pickSlot(bl.InB, l.tmp, src, dst)
			}
		}
	}
	return walk(b.sched, step, pool, lanes, b.m, stop, b.plan, b)
}

// newScratch gives each lane a TmpHalo-filled slot of buflen cells per
// materialized intermediate (nil for a fused pair's slot, which is
// never materialized), and a stripLen strip if the pipeline has a
// fused pair.
func newScratch(lanes []lane, p *stencil.Pipeline, fused []bool, buflen, stripLen int) {
	for w := range lanes {
		l := &lanes[w]
		l.tmp = make([][]float64, p.NumTmp())
		for j := range l.tmp {
			if fused[j] {
				continue
			}
			l.tmp[j] = make([]float64, buflen)
			if p.TmpHalo != 0 {
				for i := range l.tmp[j] {
					l.tmp[j][i] = p.TmpHalo
				}
			}
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
// take one full-box call; mixed boxes under a mask run segment by
// segment.
func (b *pipeBody) visit(l *lane, par, n int) {
	bufs := l.bufs[par]
	for i := range bufs {
		if i > 0 && b.fused[i-1] {
			continue // ran inside stage i-1's fused body
		}
		lo, hi, cnt := l.lo, l.hi, n
		if g := b.grow[i]; g != nil {
			lo, hi = l.slo, l.shi
			for k := range lo {
				lo[k], hi[k] = l.lo[k]-g[k], l.hi[k]+g[k]
			}
			ClipBox(lo, hi, b.sched.cfg.N)
			if b.m != nil {
				cnt = b.m.CountBox(lo, hi)
			}
		}
		if b.m == nil || int64(cnt) == boxVolume(lo, hi) {
			b.dim.box(b, i, lo, hi, &bufs[i], l)
		} else {
			b.segments(i, lo, hi, &bufs[i], l)
		}
	}
}

// segments runs stage i on each maximal active run of the unit-stride
// dimension inside the mixed box [lo, hi): one call per run, which
// evaluates each active point with bitwise the arithmetic of a
// full-box call and never writes an inactive one.
func (b *pipeBody) segments(i int, lo, hi []int, sb *stageBufs, l *lane) {
	q0, q1 := l.qlo, l.qhi
	z := len(lo) - 1
	copy(q0, lo)
	for {
		row := 0
		for k := 0; k < z; k++ {
			row = row*b.m.Dims[k] + q0[k]
			q1[k] = q0[k] + 1
		}
		for a := lo[z]; ; a = q1[z] {
			q0[z], q1[z] = b.m.NextRun(row, a, hi[z])
			if q0[z] >= hi[z] {
				break
			}
			b.dim.box(b, i, q0, q1, sb, l)
		}
		if !nextRow(q0, lo, hi) {
			return
		}
	}
}

// pickSlot resolves a stage input slot to its backing buffer (nil for
// a fused pair's unmaterialized slot).
func pickSlot(slot int, tmp [][]float64, src, dst []float64) []float64 {
	switch slot {
	case stencil.PrevState:
		return dst
	case 0:
		return src
	default:
		return tmp[slot-1]
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

// box1D applies 1D stages; kernel indices are offset by the halo h.
type box1D struct {
	kern []stencil.Kernel1DBlock
	h    int
}

func (k *box1D) box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane) {
	st, h := &b.p.Stages[i], k.h
	switch {
	case b.fused[i]:
		for c := lo[0]; c < hi[0]; c += strip1D {
			n := min(strip1D, hi[0]-c)
			k.kern[i](l.strip, sb.in[c:], h, h+n)
			blendStrip(&b.p.Stages[i+1], sb, l.strip, c, h, 1, n, 0)
			l.calls.add(b.kpath[i], 1)
		}
	case st.Spec != nil:
		k.kern[i](sb.out, sb.in, lo[0]+h, hi[0]+h)
		l.calls.add(b.kpath[i], 1)
	default:
		stencil.BlendRow(sb.out, sb.ia, st.A, sb.ib, st.B, lo[0]+h, hi[0]+h)
	}
}

// box2D applies 2D stages. Boxes are in domain coordinates; the grid
// holds the dimension-0 planes from b.x0 on.
type box2D struct {
	kern  []stencil.Kernel2DBlock
	g     *grid.Grid2D
	reach int // strip index of interior point (0, 0)
}

func (k *box2D) box(b *pipeBody, i int, lo, hi []int, sb *stageBufs, l *lane) {
	st, g := &b.p.Stages[i], k.g
	base := g.Idx(lo[0]-b.x0, lo[1])
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
	xBase := g.Idx(lo[0]-b.x0, lo[1], lo[2])
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
