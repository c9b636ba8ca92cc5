// Package naive implements the reference executors: straightforward
// time-stepped loops (optionally parallel over the outermost spatial
// dimension) and a rectangular space-tiled variant. Every other scheme
// in the repository is validated against these bit-for-bit.
package naive

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Run1D advances g by steps time steps of s using the naive schedule.
// Like every scheme, it resolves its kernel through the process-wide
// path selector (stencil.ActivePath, set via core.SetKernelPath) once
// at run start, so cross-scheme benchmarks compare like with like.
func Run1D(g *grid.Grid1D, s *stencil.Spec, steps int, pool *par.Pool) {
	k, _ := s.Resolve1D(stencil.ActivePath())
	h := g.H
	for t := 0; t < steps; t++ {
		src := g.Buf[g.Step&1]
		dst := g.Buf[(g.Step+1)&1]
		if pool == nil || pool.Workers() == 1 {
			k(dst, src, h, h+g.N)
		} else {
			w := pool.Workers()
			chunk := (g.N + w - 1) / w
			pool.For(w, func(i int) {
				lo := h + i*chunk
				hi := lo + chunk
				if hi > h+g.N {
					hi = h + g.N
				}
				if lo < hi {
					k(dst, src, lo, hi)
				}
			})
		}
		g.Step++
	}
}

// Run2D advances g by steps time steps of s, parallelising over rows.
func Run2D(g *grid.Grid2D, s *stencil.Spec, steps int, pool *par.Pool) {
	k, _ := s.Resolve2D(stencil.ActivePath())
	for t := 0; t < steps; t++ {
		src := g.Buf[g.Step&1]
		dst := g.Buf[(g.Step+1)&1]
		if pool == nil {
			// Serial: one whole-grid box call keeps cross-row reuse.
			k(dst, src, g.Idx(0, 0), g.NX, g.NY, g.SY)
		} else {
			pool.For(g.NX, func(x int) {
				k(dst, src, g.Idx(x, 0), 1, g.NY, g.SY)
			})
		}
		g.Step++
	}
}

// Run3D advances g by steps time steps of s, parallelising over planes.
func Run3D(g *grid.Grid3D, s *stencil.Spec, steps int, pool *par.Pool) {
	k, _ := s.Resolve3D(stencil.ActivePath())
	for t := 0; t < steps; t++ {
		src := g.Buf[g.Step&1]
		dst := g.Buf[(g.Step+1)&1]
		run := func(x int) {
			k(dst, src, g.Idx(x, 0, 0), 1, g.NY, g.NZ, g.SY, g.SX)
		}
		if pool == nil {
			for x := 0; x < g.NX; x++ {
				run(x)
			}
		} else {
			pool.For(g.NX, run)
		}
		g.Step++
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
	k, err := s.ResolveBox(v.D, stencil.ActivePath())
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
