package core

import (
	"fmt"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Pipeline execution. A stencil.Pipeline's logical time step is a
// chain of atomic stages; the executors here fuse the whole chain into
// each block visit of the tessellation schedule, built for the
// pipeline's COMPOUND slope (the per-dimension sum of stage slopes).
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
// strip — a chunk
// of the row in 1D, two rows in 2D, two pencils of one plane in 3D —
// into a small per-worker buffer, and BlendRow consumes it at once.
// The kernel input, the blend's other input and the output are all
// rebased by one offset so the four buffers share a single index. The
// blend is pointwise over the same box and the same mask segments as
// the stencil, so it reads only strip cells the kernel has just
// written; the pair's intermediate slot is never materialized, needs
// no scratch and has no TmpHalo to keep.

// checkPipeline validates p against the executor's dimensionality and
// returns the compound slopes.
func checkPipeline(p *stencil.Pipeline, dims int) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Dims() != dims {
		return nil, fmt.Errorf("core: pipeline %s is %dD, not %dD", p.Name, p.Dims(), dims)
	}
	return p.Slopes(), nil
}

// fusedPairs returns the stage pairs the executors run as one body.
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

// pipeScratch is one worker's buffers: tmp[j] backs intermediate slot
// j+1 in the grid's layout (nil for a fused pair's slot, which is
// never materialized), and strip holds a fused pair's strip.
type pipeScratch struct {
	tmp   [][]float64
	strip []float64
}

// newScratch allocates per-worker buffers: a TmpHalo-filled slot of
// buflen cells per materialized intermediate, and a stripLen strip if
// the pipeline has a fused pair.
func newScratch(workers int, p *stencil.Pipeline, fused []bool, buflen, stripLen int) []pipeScratch {
	anyFused := false
	for _, f := range fused {
		anyFused = anyFused || f
	}
	scratch := make([]pipeScratch, workers)
	for w := range scratch {
		scratch[w].tmp = make([][]float64, p.NumTmp())
		for j := range scratch[w].tmp {
			if fused[j] {
				continue
			}
			s := make([]float64, buflen)
			if p.TmpHalo != 0 {
				for i := range s {
					s[i] = p.TmpHalo
				}
			}
			scratch[w].tmp[j] = s
		}
		if anyFused {
			scratch[w].strip = make([]float64, stripLen)
		}
	}
	return scratch
}

// stageOut returns the buffer stage i writes: the state's destination
// for the final stage, its intermediate slot otherwise.
func stageOut(i, nst int, scr [][]float64, dstBuf []float64) []float64 {
	if i == nst-1 {
		return dstBuf
	}
	return scr[i]
}

// blendStrip applies the fused blend bl to rows strip rows of n points,
// the first at strip index lo and the rest stride apart. out, ia and
// ib are whole grid-layout buffers whose index off+i strip index i
// stands for; a nil input is the pair's unmaterialized slot, i.e. the
// strip itself.
func blendStrip(bl *stencil.Stage, out, ia, ib, strip []float64, off, lo, rows, n, stride int) {
	a, b := strip, strip
	if ia != nil {
		a = ia[off:]
	}
	if ib != nil {
		b = ib[off:]
	}
	o := out[off:]
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

// pickSlot resolves a stage input slot to its backing buffer.
func pickSlot(slot int, scr [][]float64, srcBuf, dstBuf []float64) []float64 {
	switch slot {
	case stencil.PrevState:
		return dstBuf
	case 0:
		return srcBuf
	default:
		return scr[slot-1]
	}
}

// RunPipeline1D advances a 1D grid by steps logical time steps of the
// pipeline, fusing all stages inside each block visit. The grid halo
// and cfg.Slopes must match the pipeline's compound slope. A non-nil
// mask restricts every stage to its active points (see RunMasked1D).
func RunPipeline1D(g *grid.Grid1D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 1)
	if err != nil {
		return err
	}
	if g.H < slopes[0] {
		return fmt.Errorf("core: grid halo %d < compound slope %d", g.H, slopes[0])
	}
	if err := checkConfig(cfg, []int{g.N}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.N}); err != nil {
			return err
		}
	}
	return runPipeline1D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline1D(g *grid.Grid1D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	h := g.H
	pth := runPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel1DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve1D(pth)
		}
	}
	grow := p.SuffixSlopes()
	fused := fusedPairs(p)
	// A 1D strip is a strip1D-point chunk of the row at index h, so its
	// kernel reads stay at or above index 0.
	scratch := newScratch(pool.Workers(), p, fused, len(g.Buf[0]), h+strip1D)
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			scr, strip := scratch[wkr].tmp, scratch[wkr].strip
			var flo, fhi, clo, chi, slo, shi [1]int
			var pts int64
			var calls callTally
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					clo[0], chi[0] = flo[0], fhi[0]
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0] - clo[0])
					}
					for i := 0; i < nst; i++ {
						if i > 0 && fused[i-1] {
							continue // ran inside stage i-1's fused body
						}
						st := &p.Stages[i]
						slo[0], shi[0] = flo[0]-grow[i][0], fhi[0]+grow[i][0]
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						run := func(a, b int) {
							switch {
							case fused[i]:
								bl := &p.Stages[i+1]
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								out := stageOut(i+1, nst, scr, dstBuf)
								ia := pickSlot(bl.In, scr, srcBuf, dstBuf)
								ib := pickSlot(bl.InB, scr, srcBuf, dstBuf)
								for c := a; c < b; c += strip1D {
									n := min(strip1D, b-c)
									kern[i](strip, in[c:], h, h+n)
									blendStrip(bl, out, ia, ib, strip, c, h, 1, n, 0)
									calls.add(kpath[i], 1)
								}
							case st.Spec != nil:
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](stageOut(i, nst, scr, dstBuf), in, a+h, b+h)
								calls.add(kpath[i], 1)
							default:
								ia := pickSlot(st.In, scr, srcBuf, dstBuf)
								ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
								stencil.BlendRow(stageOut(i, nst, scr, dstBuf), ia, st.A, ib, st.B, a+h, b+h)
							}
						}
						if m == nil {
							run(slo[0], shi[0])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == shi[0]-slo[0] {
							run(slo[0], shi[0])
							continue
						}
						for a := slo[0]; ; {
							ra, rb := m.NextRun(0, a, shi[0])
							if ra >= shi[0] {
								break
							}
							run(ra, rb)
							a = rb
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, calls.rows, calls.blocks, calls.simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}

// RunPipeline2D advances a 2D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 2)
	if err != nil {
		return err
	}
	if g.HX < slopes[0] || g.HY < slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < compound slopes %v", g.HX, g.HY, slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.NX, g.NY}); err != nil {
			return err
		}
	}
	return runPipeline2D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	pth := runPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel2DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve2D(pth)
		}
	}
	grow := p.SuffixSlopes()
	fused := fusedPairs(p)
	// A 2D strip is two rows in the grid's layout starting at index
	// reach, so kernel reads (at most HX rows and HY cells back) stay
	// at or above index 0.
	reach := g.Idx(0, 0)
	scratch := newScratch(pool.Workers(), p, fused, len(g.Buf[0]), reach+g.SY+g.NY)
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			scr, strip := scratch[wkr].tmp, scratch[wkr].strip
			var flo, fhi, clo, chi, slo, shi [2]int
			var pts int64
			var calls callTally
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					copy(clo[:], flo[:])
					copy(chi[:], fhi[:])
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0]-clo[0]) * int64(chi[1]-clo[1])
					}
					for i := 0; i < nst; i++ {
						if i > 0 && fused[i-1] {
							continue // ran inside stage i-1's fused body
						}
						st := &p.Stages[i]
						for k := 0; k < 2; k++ {
							slo[k], shi[k] = flo[k]-grow[i][k], fhi[k]+grow[i][k]
						}
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						run := func(x0, y0, nx, ny int) {
							base := g.Idx(x0, y0)
							switch {
							case fused[i]:
								// Row pairs keep the kernels' cross-row
								// register reuse; an odd box ends with a
								// one-row strip.
								bl := &p.Stages[i+1]
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								out := stageOut(i+1, nst, scr, dstBuf)
								ia := pickSlot(bl.In, scr, srcBuf, dstBuf)
								ib := pickSlot(bl.InB, scr, srcBuf, dstBuf)
								for x := 0; x < nx; x += 2 {
									rows := min(2, nx-x)
									off := base + x*g.SY - reach
									kern[i](strip, in[off:], reach, rows, ny, g.SY)
									blendStrip(bl, out, ia, ib, strip, off, reach, rows, ny, g.SY)
									calls.add(kpath[i], int64(rows))
								}
							case st.Spec != nil:
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](stageOut(i, nst, scr, dstBuf), in, base, nx, ny, g.SY)
								calls.add(kpath[i], int64(nx))
							default:
								out := stageOut(i, nst, scr, dstBuf)
								ia := pickSlot(st.In, scr, srcBuf, dstBuf)
								ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
								for x := 0; x < nx; x++ {
									stencil.BlendRow(out, ia, st.A, ib, st.B, base, base+ny)
									base += g.SY
								}
							}
						}
						if m == nil {
							run(slo[0], slo[1], shi[0]-slo[0], shi[1]-slo[1])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == (shi[0]-slo[0])*(shi[1]-slo[1]) {
							run(slo[0], slo[1], shi[0]-slo[0], shi[1]-slo[1])
							continue
						}
						for x := slo[0]; x < shi[0]; x++ {
							for a := slo[1]; ; {
								ra, rb := m.NextRun(x, a, shi[1])
								if ra >= shi[1] {
									break
								}
								run(x, ra, 1, rb-ra)
								a = rb
							}
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, calls.rows, calls.blocks, calls.simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}

// RunPipeline3D advances a 3D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline3D(g *grid.Grid3D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 3)
	if err != nil {
		return err
	}
	if g.HX < slopes[0] || g.HY < slopes[1] || g.HZ < slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < compound slopes %v", g.HX, g.HY, g.HZ, slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY, g.NZ}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.NX, g.NY, g.NZ}); err != nil {
			return err
		}
	}
	return runPipeline3D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline3D(g *grid.Grid3D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	pth := runPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel3DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve3D(pth)
		}
	}
	grow := p.SuffixSlopes()
	fused := fusedPairs(p)
	// A 3D strip is two pencils of one plane in the grid's layout
	// starting at index reach, so kernel reads (at most HX planes, HY
	// pencils and HZ cells back) stay at or above index 0.
	reach := g.Idx(0, 0, 0)
	scratch := newScratch(pool.Workers(), p, fused, len(g.Buf[0]), reach+g.SY+g.NZ)
	pb := g.Step & 1
	ny := g.NY
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			scr, strip := scratch[wkr].tmp, scratch[wkr].strip
			var flo, fhi, clo, chi, slo, shi [3]int
			var pts int64
			var calls callTally
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					copy(clo[:], flo[:])
					copy(chi[:], fhi[:])
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0]-clo[0]) * int64(chi[1]-clo[1]) * int64(chi[2]-clo[2])
					}
					for i := 0; i < nst; i++ {
						if i > 0 && fused[i-1] {
							continue // ran inside stage i-1's fused body
						}
						st := &p.Stages[i]
						for k := 0; k < 3; k++ {
							slo[k], shi[k] = flo[k]-grow[i][k], fhi[k]+grow[i][k]
						}
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						run := func(x0, y0, z0, nx, nyy, nz int) {
							xBase := g.Idx(x0, y0, z0)
							switch {
							case fused[i]:
								// Pencil pairs within one plane keep the
								// kernels' cross-pencil reuse; an odd
								// plane ends with a one-pencil strip.
								bl := &p.Stages[i+1]
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								out := stageOut(i+1, nst, scr, dstBuf)
								ia := pickSlot(bl.In, scr, srcBuf, dstBuf)
								ib := pickSlot(bl.InB, scr, srcBuf, dstBuf)
								for x := 0; x < nx; x++ {
									for y := 0; y < nyy; y += 2 {
										rows := min(2, nyy-y)
										off := xBase + x*g.SX + y*g.SY - reach
										kern[i](strip, in[off:], reach, 1, rows, nz, g.SY, g.SX)
										blendStrip(bl, out, ia, ib, strip, off, reach, rows, nz, g.SY)
										calls.add(kpath[i], int64(rows))
									}
								}
							case st.Spec != nil:
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](stageOut(i, nst, scr, dstBuf), in, xBase, nx, nyy, nz, g.SY, g.SX)
								calls.add(kpath[i], int64(nx)*int64(nyy))
							default:
								out := stageOut(i, nst, scr, dstBuf)
								ia := pickSlot(st.In, scr, srcBuf, dstBuf)
								ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
								for x := 0; x < nx; x++ {
									base := xBase
									for y := 0; y < nyy; y++ {
										stencil.BlendRow(out, ia, st.A, ib, st.B, base, base+nz)
										base += g.SY
									}
									xBase += g.SX
								}
							}
						}
						if m == nil {
							run(slo[0], slo[1], slo[2], shi[0]-slo[0], shi[1]-slo[1], shi[2]-slo[2])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == (shi[0]-slo[0])*(shi[1]-slo[1])*(shi[2]-slo[2]) {
							run(slo[0], slo[1], slo[2], shi[0]-slo[0], shi[1]-slo[1], shi[2]-slo[2])
							continue
						}
						for x := slo[0]; x < shi[0]; x++ {
							for y := slo[1]; y < shi[1]; y++ {
								row := x*ny + y
								for a := slo[2]; ; {
									ra, rb := m.NextRun(row, a, shi[2])
									if ra >= shi[2] {
										break
									}
									run(x, y, ra, 1, 1, rb-ra)
									a = rb
								}
							}
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, calls.rows, calls.blocks, calls.simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}
