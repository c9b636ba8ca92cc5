// Package naive implements the reference executors: one straightforward
// time-stepped loop over a grid view (optionally parallel over the
// outermost spatial dimension), its n-dimensional counterpart and a
// rectangular space-tiled variant. Every other scheme in the repository
// is validated against these bit-for-bit.
package naive

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Run advances the grid v views by steps logical time steps of the
// pipeline p, the plain meaning of a multi-stage step that the fused
// tessellated executors must reproduce bit for bit: one sweep per stage
// per time step, stages strictly in order. A plain stencil s runs as
// stencil.OneStage(s). Intermediates live in len(p.Stages)-1 whole-grid
// buffers sharing the grid's layout, filled with p.TmpHalo and written
// only on the (active) interior, so out-of-domain and masked-out
// intermediate reads see TmpHalo here as in every other scheme. A
// non-nil mask m restricts every stage to its active points, one
// kernel call per NextRun run; inactive points are never written and
// keep their seeded value in both parity buffers (frozen interior
// Dirichlet cells).
//
// Without a pool, or on one worker, a stage is one whole-grid box. On
// more workers a 2D or 3D stage runs one pool.For index per row (2D) or
// plane (3D) of dimension 0, and a 1D stage one per worker, each a
// chunk of the row.
// Like every scheme, Run resolves its kernels through the process-wide
// path selector (stencil.ActivePath, set via core.SetKernelPath) once
// at run start, so cross-scheme benchmarks compare like with like.
func Run(v grid.View, p *stencil.Pipeline, steps int, pool *par.Pool, m *grid.Mask) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Dims() != v.D {
		return fmt.Errorf("naive: pipeline %s is %dD, not %dD", p.Name, p.Dims(), v.D)
	}
	if v.X0 != 0 {
		return fmt.Errorf("naive: the view from plane %d is part of a domain; the oracle runs whole ones", v.X0)
	}
	if err := m.Fit(v.Extents()); err != nil {
		return fmt.Errorf("naive: %w", err)
	}
	nst := len(p.Stages)
	kern := make([]stencil.BoxKernel, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			var err error
			if kern[i], _, err = st.Spec.ResolveBox(v.D, stencil.ActivePath()); err != nil {
				return fmt.Errorf("naive: %w", err)
			}
		}
	}
	tmp := make([][]float64, nst-1)
	for j := range tmp {
		tmp[j] = make([]float64, len(v.Buf[0]))
		for i := range tmp[j] {
			tmp[j][i] = p.TmpHalo
		}
	}
	// parts pool.For indices split dimension 0 into chunks of chunk.
	parts, z := 1, v.D-1
	if pool != nil && pool.Workers() > 1 {
		parts = v.N[0]
		if z == 0 {
			parts = pool.Workers()
		}
	}
	chunk := (v.N[0] + parts - 1) / parts
	for t := 0; t < steps; t++ {
		src, dst := v.Src(0), v.Dst(0)
		pick := func(slot int) []float64 {
			switch slot {
			case stencil.PrevState:
				return dst
			case 0:
				return src
			}
			return tmp[slot-1]
		}
		for i := range p.Stages {
			st, out := &p.Stages[i], dst
			if i < nst-1 {
				out = tmp[i]
			}
			in, inB := pick(st.In), pick(st.InB)
			box := func(lo, hi [3]int) {
				base, n := v.Box(lo, hi)
				if kern[i] != nil {
					kern[i](out, in, base, n, v.S)
					return
				}
				forRows(lo, hi, z, func(r [3]int) {
					b := v.Index(r)
					stencil.BlendRow(out, in, st.A, inB, st.B, b, b+n[z])
				})
			}
			part := func(j int) {
				lo, hi := [3]int{j * chunk}, v.N
				hi[0] = min(lo[0]+chunk, v.N[0])
				if lo[0] >= hi[0] {
					return
				}
				if m == nil {
					box(lo, hi)
					return
				}
				forRows(lo, hi, z, func(r [3]int) {
					row := 0
					for k := 0; k < z; k++ {
						row = row*v.N[k] + r[k]
					}
					rlo, rhi := r, [3]int{r[0] + 1, r[1] + 1, r[2] + 1}
					for a := lo[z]; ; a = rhi[z] {
						if rlo[z], rhi[z] = m.NextRun(row, a, hi[z]); rlo[z] >= hi[z] {
							return
						}
						box(rlo, rhi)
					}
				})
			}
			if parts == 1 {
				part(0)
			} else {
				pool.For(parts, part)
			}
		}
		*v.Step++
	}
	return nil
}

// forRows calls f with the first point of every unit-stride row of the
// box [lo, hi), z the unit-stride dimension.
func forRows(lo, hi [3]int, z int, f func(r [3]int)) {
	r := lo
	for {
		f(r)
		k := z - 1
		for ; k >= 0; k-- {
			if r[k]++; r[k] < hi[k] {
				break
			}
			r[k] = lo[k]
		}
		if k < 0 {
			return
		}
	}
}

// SpaceTiled is the classic spatial rectangular tiling: each time step
// of the grid v views is cut into tiles of tile[k] cells along each
// dimension k < len(tile), executed in parallel; the other dimensions
// (in 3D the unit-stride one, the convention of all schemes in the
// paper's evaluation) and any with tile[k] <= 0 stay uncut. It reuses
// data within a step but, unlike temporal tiling, re-streams the whole
// grid every step — the bandwidth-bound behaviour the paper's
// introduction describes.
func SpaceTiled(v grid.View, s *stencil.Spec, steps int, tile []int, pool *par.Pool) error {
	k, _, err := s.ResolveBox(v.D, stencil.ActivePath())
	if err != nil {
		return fmt.Errorf("naive: %w", err)
	}
	ext, nt := v.N, [3]int{1, 1, 1}
	for d := 0; d < min(len(tile), v.D); d++ {
		if tile[d] > 0 {
			ext[d] = tile[d]
			nt[d] = (v.N[d] + ext[d] - 1) / ext[d]
		}
	}
	for t := 0; t < steps; t++ {
		dst, src := v.Dst(0), v.Src(0)
		pool.For(nt[0]*nt[1]*nt[2], func(i int) {
			var lo, hi [3]int
			for d := 2; d >= 0; d-- {
				lo[d] = (i % nt[d]) * ext[d]
				hi[d] = min(lo[d]+ext[d], v.N[d])
				i /= nt[d]
			}
			base, n := v.Box(lo, hi)
			k(dst, src, base, n, v.S)
		})
		*v.Step++
	}
	return nil
}

// RunND advances an n-dimensional grid by steps time steps of the
// generic stencil gs, with either constant (non-periodic) or periodic
// boundary handling. It is the slow universal reference used by the
// formula-driven tessellation executor's tests.
func RunND(g *grid.NDGrid, gs *stencil.Generic, steps int, periodic bool) {
	flat := gs.FlatOffsets(g.Strides)
	c := make([]int, g.D())
	nb := make([]int, g.D())
	for t := 0; t < steps; t++ {
		src := g.Buf[g.Step&1]
		dst := g.Buf[(g.Step+1)&1]
		var walk func(k int)
		walk = func(k int) {
			if k == g.D() {
				i := g.Idx(c)
				if periodic {
					// Gather neighbours with wrap-around.
					var acc float64
					for n, off := range gs.Offsets {
						for j := range nb {
							v := c[j] + off[j]
							if v < 0 {
								v += g.Dims[j]
							} else if v >= g.Dims[j] {
								v -= g.Dims[j]
							}
							nb[j] = v
						}
						acc += gs.Coeffs[n] * src[g.Idx(nb)]
					}
					dst[i] = acc
				} else {
					gs.Apply(dst, src, i, flat)
				}
				return
			}
			for v := 0; v < g.Dims[k]; v++ {
				c[k] = v
				walk(k + 1)
			}
			c[k] = 0
		}
		walk(0)
		g.Step++
	}
}

// Run2D, Run3D, RunMasked2D, RunMasked3D and RunPipeline2D are Run on
// g's view, a plain stencil s running as its one-stage pipeline. They
// stay only because perfbench's oracles call them.

// Run2D is Run of the stencil s, unmasked; it reports no error.
func Run2D(g *grid.Grid2D, s *stencil.Spec, steps int, pool *par.Pool) {
	_ = Run(g.View(), stencil.OneStage(s), steps, pool, nil)
}

// Run3D is Run2D for 3D grids.
func Run3D(g *grid.Grid3D, s *stencil.Spec, steps int, pool *par.Pool) {
	_ = Run(g.View(), stencil.OneStage(s), steps, pool, nil)
}

// RunMasked2D is Run of the stencil s under the mask m.
func RunMasked2D(g *grid.Grid2D, s *stencil.Spec, steps int, pool *par.Pool, m *grid.Mask) error {
	return Run(g.View(), stencil.OneStage(s), steps, pool, m)
}

// RunMasked3D is RunMasked2D for 3D grids.
func RunMasked3D(g *grid.Grid3D, s *stencil.Spec, steps int, pool *par.Pool, m *grid.Mask) error {
	return Run(g.View(), stencil.OneStage(s), steps, pool, m)
}

// RunPipeline2D is Run of the pipeline p.
func RunPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, pool *par.Pool, m *grid.Mask) error {
	return Run(g.View(), p, steps, pool, m)
}
