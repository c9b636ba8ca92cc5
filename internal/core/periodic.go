package core

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Periodic boundary support (paper §3.6). The paper handles arbitrary
// domain sizes by stretching one block per dimension into a hexagonal
// (1D) or prism (nD) shape; when the domain size is an exact multiple
// of the block lattice period no stretching is needed — every block
// that crosses the boundary simply wraps around, and the phase-to-phase
// lattice shift of Spacing/2 also wraps because Spacing divides N. This
// file implements that exact-multiple case; ValidatePeriodic checks it
// with the same machinery as the non-periodic validator.

// ValidatePeriodicConfig reports whether cfg supports wrap-around
// execution: every domain extent must be a positive multiple of the
// block lattice period of its dimension.
func ValidatePeriodicConfig(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for k := range cfg.N {
		sp := cfg.Spacing(k)
		if cfg.N[k]%sp != 0 {
			return fmt.Errorf("core: periodic run needs N[%d] (%d) to be a multiple of the lattice period %d (paper §3.6 block stretching is not implemented; choose Big/BT so that Big+Small divides N)",
				k, cfg.N[k], sp)
		}
	}
	return nil
}

// periodicRegions builds the wrap-around schedule: exactly one lattice
// period of blocks per dimension; execution wraps coordinates mod N.
func (c *Config) periodicRegions(steps int) []Region {
	d := c.Dims()
	// One block per lattice cell: m in [0, N/spacing).
	cells := func(parity int, glued uint) []Block {
		var out []Block
		m := make([]int, d)
		for {
			o := make([]int, d)
			for k := 0; k < d; k++ {
				off := 0
				if glued&(1<<uint(k)) != 0 {
					off = c.Big[k]
				}
				o[k] = c.base(parity, k) + m[k]*c.Spacing(k) + off
			}
			out = append(out, Block{Origin: o, Glued: glued})
			k := d - 1
			for ; k >= 0; k-- {
				m[k]++
				if m[k] < c.N[k]/c.Spacing(k) {
					break
				}
				m[k] = 0
			}
			if k < 0 {
				return out
			}
		}
	}
	var out []Region
	var diamonds [2][]Block
	var stages [2][][]Block
	for parity := 0; parity < 2; parity++ {
		diamonds[parity] = cells(parity, 0)
		for i := 1; i < d; i++ {
			var blocks []Block
			for _, g := range orientations(d, i) {
				blocks = append(blocks, cells(parity, g)...)
			}
			stages[parity] = append(stages[parity], blocks)
		}
	}
	for w := -1; w*c.BT < steps; w++ {
		mid := (w + 1) * c.BT
		q := w + 1
		t0, t1 := clampWindow(w*c.BT, (w+2)*c.BT, steps)
		out = append(out, Region{T0: t0, T1: t1, Ref: mid, Diamond: true,
			Group: c.Coarsen.Factor(0), Blocks: diamonds[q&1]})
		t0, t1 = clampWindow(q*c.BT, (q+1)*c.BT, steps)
		if t0 >= t1 {
			continue
		}
		for i := 1; i < d; i++ {
			out = append(out, Region{T0: t0, T1: t1, Ref: q * c.BT, Stage: i,
				Group: c.Coarsen.Factor(i), Blocks: stages[q&1][i-1]})
		}
	}
	return out
}

// periodicBounds computes the block box at time t without domain
// clipping (the box may extend past [0, N); callers wrap modulo N).
// It reports whether the box is non-empty.
func (c *Config) periodicBounds(r *Region, b *Block, t int, lo, hi []int) bool {
	if r.Diamond {
		tau := t + 1 - r.Ref
		if tau < 0 {
			tau = -tau
		}
		for k := range lo {
			s := tau * c.Slopes[k]
			lo[k] = b.Origin[k] + s
			hi[k] = b.Origin[k] + c.Big[k] - s
			if lo[k] >= hi[k] {
				return false
			}
		}
		return true
	}
	u := t - r.Ref
	for k := range lo {
		s := (u + 1) * c.Slopes[k]
		if b.Glued&(1<<uint(k)) != 0 {
			lo[k] = b.Origin[k] - s
			hi[k] = b.Origin[k] + c.Small(k) + s
		} else {
			lo[k] = b.Origin[k] + s
			hi[k] = b.Origin[k] + c.Big[k] - s
		}
		if lo[k] >= hi[k] {
			return false
		}
	}
	return true
}

// RunNDPeriodic advances an n-dimensional grid with periodic boundaries
// by steps time steps using the tessellation schedule. The domain
// extents must each be a multiple of the block lattice period
// (ValidatePeriodicConfig).
func RunNDPeriodic(g *grid.NDGrid, gs *stencil.Generic, steps int, cfg *Config, pool *par.Pool) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := checkShape(cfg, g.Dims, gs.Slopes); err != nil {
		return err
	}
	if err := ValidatePeriodicConfig(cfg); err != nil {
		return err
	}
	d := g.D()
	flat := gs.FlatOffsets(g.Strides)
	fast := BlockKernelsEnabled()
	pb := g.Step & 1 // buffer parity: current values live in Buf[pb]
	for _, r := range cfg.periodicRegions(steps) {
		r := r
		pool.ForSticky(r.Tasks(), func(gi, _ int) {
			b0, b1 := r.Span(gi)
			lo := make([]int, d)
			hi := make([]int, d)
			p := make([]int, d)
			q := make([]int, d)
			nb := make([]int, d)
			for bi := b0; bi < b1; bi++ {
				b := &r.Blocks[bi]
				for t := r.T0; t < r.T1; t++ {
					if !cfg.periodicBounds(&r, b, t, lo, hi) {
						continue
					}
					dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
					// Interior fast path: when the box plus its stencil
					// footprint lies entirely inside [0, N) in every
					// dimension, no access wraps, so the per-neighbour
					// modulo arithmetic is pure overhead. Use precomputed
					// flat offsets and row-hoisted updates instead.
					// ApplyRow accumulates in the same declaration order
					// as the wrap loop below, so results are bitwise
					// identical either way.
					interior := fast
					for k := 0; k < d && interior; k++ {
						interior = lo[k]-gs.Slopes[k] >= 0 && hi[k]+gs.Slopes[k] <= g.Dims[k]
					}
					if interior {
						n := hi[d-1] - lo[d-1]
						copy(p, lo)
						for {
							gs.ApplyRow(dst, src, g.Idx(p), n, flat)
							k := d - 2
							for ; k >= 0; k-- {
								p[k]++
								if p[k] < hi[k] {
									break
								}
								p[k] = lo[k]
							}
							if k < 0 {
								break
							}
						}
						continue
					}
					copy(p, lo)
					for {
						// Wrap the point and gather neighbours mod N.
						var acc float64
						for n, off := range gs.Offsets {
							for k := 0; k < d; k++ {
								v := (p[k] + off[k]) % g.Dims[k]
								if v < 0 {
									v += g.Dims[k]
								}
								nb[k] = v
							}
							acc += gs.Coeffs[n] * src[g.Idx(nb)]
						}
						for k := 0; k < d; k++ {
							v := p[k] % g.Dims[k]
							if v < 0 {
								v += g.Dims[k]
							}
							q[k] = v
						}
						dst[g.Idx(q)] = acc

						k := d - 1
						for ; k >= 0; k-- {
							p[k]++
							if p[k] < hi[k] {
								break
							}
							p[k] = lo[k]
						}
						if k < 0 {
							break
						}
					}
				}
			}
		})
	}
	g.Step += steps
	return nil
}

// ValidatePeriodic replays the periodic schedule on an update-count
// grid with wrap-around neighbours and checks the same three properties
// as ValidateSchedule.
func ValidatePeriodic(cfg *Config, steps int) error {
	if err := ValidatePeriodicConfig(cfg); err != nil {
		return err
	}
	d := cfg.Dims()
	total := 1
	for _, n := range cfg.N {
		total *= n
	}
	strides := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		if k == d-1 {
			strides[k] = 1
		} else {
			strides[k] = strides[k+1] * cfg.N[k+1]
		}
	}
	cnt := make([]int, total)
	before := make([]int, total)
	after := make([]int, total)
	owner := make([]int32, total)
	ownerVer := make([]int32, total)
	for i := range ownerVer {
		ownerVer[i] = -1
	}

	var offsets [][]int
	off := make([]int, d)
	var gen func(k int)
	gen = func(k int) {
		if k == d {
			offsets = append(offsets, append([]int(nil), off...))
			return
		}
		for v := -cfg.Slopes[k]; v <= cfg.Slopes[k]; v++ {
			off[k] = v
			gen(k + 1)
		}
		off[k] = 0
	}
	gen(0)

	lo := make([]int, d)
	hi := make([]int, d)
	p := make([]int, d)
	q := make([]int, d)
	wrapFlat := func(p []int) int {
		i := 0
		for k, v := range p {
			v %= cfg.N[k]
			if v < 0 {
				v += cfg.N[k]
			}
			i += v * strides[k]
		}
		return i
	}

	for ri, r := range cfg.periodicRegions(steps) {
		ver := int32(ri)
		copy(before, cnt)
		for bi := range r.Blocks {
			b := &r.Blocks[bi]
			for t := r.T0; t < r.T1; t++ {
				if !cfg.periodicBounds(&r, b, t, lo, hi) {
					continue
				}
				err := forBox(lo, hi, p, func() error {
					i := wrapFlat(p)
					if cnt[i] != t {
						return fmt.Errorf("periodic region %d block %d: point %v updated to %d but has count %d", ri, bi, p, t+1, cnt[i])
					}
					cnt[i]++
					if ownerVer[i] == ver && owner[i] != int32(bi) {
						return fmt.Errorf("periodic region %d: point %v written by blocks %d and %d", ri, p, owner[i], bi)
					}
					owner[i] = int32(bi)
					ownerVer[i] = ver
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		copy(after, cnt)
		copy(cnt, before)
		for bi := range r.Blocks {
			b := &r.Blocks[bi]
			for t := r.T0; t < r.T1; t++ {
				if !cfg.periodicBounds(&r, b, t, lo, hi) {
					continue
				}
				err := forBox(lo, hi, p, func() error {
					for _, o := range offsets {
						for k := 0; k < d; k++ {
							q[k] = p[k] + o[k]
						}
						j := wrapFlat(q)
						if ownerVer[j] == ver && owner[j] != int32(bi) {
							if before[j] < t || after[j] > t+1 {
								return fmt.Errorf("periodic region %d block %d t=%d: unsafe concurrent read of %v (before=%d after=%d)",
									ri, bi, t, q, before[j], after[j])
							}
						} else if cnt[j] < t || cnt[j] > t+1 {
							return fmt.Errorf("periodic region %d block %d t=%d: %v reads %v with count %d (need %d..%d)",
								ri, bi, t, p, q, cnt[j], t, t+1)
						}
					}
					cnt[wrapFlat(p)]++
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
	}
	for i := range cnt {
		if cnt[i] != steps {
			unflat(i, strides, p, cfg.N)
			return fmt.Errorf("periodic point %v finished with count %d, want %d", p, cnt[i], steps)
		}
	}
	return nil
}
