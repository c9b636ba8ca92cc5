package core

import "math/bits"

// Block identifies one space-time block of the tessellation schedule.
// A block is phase-independent: it carries only its lattice origin (the
// low corner of the underlying B_0 tile) and its glued-dimension set;
// the owning Region supplies the time reference. This lets the schedule
// generator build the per-parity block lists once and share them across
// all phases.
type Block struct {
	Origin []int
	Glued  uint // bitmask of glued (expanding) dimensions; unused for diamonds
}

// Region is one synchronization-free parallel region: all its blocks
// may execute concurrently. T0/T1 bound the global time window
// (already clamped to [0, steps)).
//
// For a stage region (Diamond == false), Ref is the phase start time
// q*BT; a block of orientation G updates, at local step
// u = t - Ref in [0, BT), the box whose k-th extent is
//
//	k in G (expand):  [Origin_k+Big_k-(u+1)S_k, Origin_k+Big_k+Small_k+(u+1)S_k)
//	k not in G:       [Origin_k+(u+1)S_k,       Origin_k+Big_k-(u+1)S_k)
//
// For a diamond region (Diamond == true) — the §4.3 merge of B_d of one
// phase with B_0 of the next — Ref is the centre time (a multiple of
// BT), the window is [Ref-BT, Ref+BT), and at time t the block updates
//
//	[Origin_k + tau*S_k, Origin_k + Big_k - tau*S_k),  tau = |t+1-Ref|
//
// Stage is the region's stage index — the number of glued dimensions
// of its blocks; diamond regions report 0, the slot of the B_0 blocks
// they merge. Group is the dispatch coarsening factor the schedule
// builder resolved from Config.Coarsen (§4.2 per stage): executors
// schedule ceil(len(Blocks)/Group) work items of Group adjacent blocks
// each instead of one item per block. Group never changes which boxes
// are updated, only the scheduling grain.
type Region struct {
	T0, T1  int
	Ref     int
	Diamond bool
	Stage   int
	Group   int
	Blocks  []Block
}

// Bounds computes the unclipped update box of block b of region r at
// global time t into lo/hi (hi exclusive). Slices must have length
// Dims.
func (c *Config) Bounds(r *Region, b *Block, t int, lo, hi []int) {
	if r.Diamond {
		tau := t + 1 - r.Ref
		if tau < 0 {
			tau = -tau
		}
		for k := range lo {
			s := tau * c.Slopes[k]
			lo[k] = b.Origin[k] + s
			hi[k] = b.Origin[k] + c.Big[k] - s
		}
		return
	}
	u := t - r.Ref
	for k := range lo {
		s := (u + 1) * c.Slopes[k]
		if b.Glued&(1<<uint(k)) != 0 {
			lo[k] = b.Origin[k] + c.Big[k] - s
			hi[k] = b.Origin[k] + c.Big[k] + c.Small(k) + s
		} else {
			lo[k] = b.Origin[k] + s
			hi[k] = b.Origin[k] + c.Big[k] - s
		}
	}
}

// ClippedBounds is Bounds followed by intersection with the domain
// [0, N). It reports whether the box is non-empty. A periodic config's
// box is left unclipped: it may extend past [0, N), and executors wrap
// its coordinates mod N.
func (c *Config) ClippedBounds(r *Region, b *Block, t int, lo, hi []int) bool {
	c.Bounds(r, b, t, lo, hi)
	if c.Periodic {
		for k := range lo {
			if lo[k] >= hi[k] {
				return false
			}
		}
		return true
	}
	return ClipBox(lo, hi, c.N)
}

// ClipBox intersects the box [lo, hi) with the domain [0, n) in place
// and reports whether the result is non-empty. It is the one
// boundary-clipping primitive shared by ClippedBounds, the masked and
// pipeline executors, and examples that clip their own sub-boxes —
// keeping "how a box meets the domain edge" defined in exactly one
// place.
func ClipBox(lo, hi, n []int) bool {
	ok := true
	for k := range lo {
		if lo[k] < 0 {
			lo[k] = 0
		}
		if hi[k] > n[k] {
			hi[k] = n[k]
		}
		if lo[k] >= hi[k] {
			ok = false
		}
	}
	return ok
}

// base returns the lattice offset of dimension k at the given phase
// parity: the lattice shifts by Spacing/2 every phase so that B_d
// blocks align with the next phase's B_0 blocks.
func (c *Config) base(parity, k int) int {
	if parity != 0 {
		return c.Spacing(k) / 2
	}
	return 0
}

// dimRange returns the half-open lattice index interval [m0, m1) of
// dimension k whose blocks can touch the domain, for a block whose
// maximal extent relative to its tile origin is [off, off+Big).
func (c *Config) dimRange(parity, k, off int) (m0, m1 int) {
	sp := c.Spacing(k)
	lo := c.base(parity, k) + off
	// Need base + m*sp + off + Big > 0  and  base + m*sp + off < N.
	m0 = floorDiv(-lo-c.Big[k], sp) + 1
	m1 = floorDiv(c.N[k]-1-lo, sp) + 1
	return m0, m1
}

// expandOff is the extent offset of an expanding dimension: its
// maximal box is [Origin+Spacing/2, Origin+Spacing/2+Big).
func (c *Config) expandOff(k int) int { return c.Spacing(k) / 2 }

// latticeBlocks appends one block per lattice point whose maximal
// extent (off[k], off[k]+Big[k]) relative to the tile origin intersects
// the domain, at the given phase parity. A periodic config takes
// exactly one lattice period per dimension, m in [0, N/Spacing): the
// blocks past the domain edge are these blocks wrapped around.
func (c *Config) latticeBlocks(dst []Block, parity int, glued uint, off func(k int) int) []Block {
	d := c.Dims()
	m0 := make([]int, d)
	m1 := make([]int, d)
	for k := 0; k < d; k++ {
		if c.Periodic {
			m1[k] = c.N[k] / c.Spacing(k)
		} else {
			m0[k], m1[k] = c.dimRange(parity, k, off(k))
		}
		if m0[k] >= m1[k] {
			return dst
		}
	}
	m := append([]int(nil), m0...)
	for {
		o := make([]int, d)
		for k := 0; k < d; k++ {
			o[k] = c.base(parity, k) + m[k]*c.Spacing(k)
		}
		dst = append(dst, Block{Origin: o, Glued: glued})
		k := d - 1
		for ; k >= 0; k-- {
			m[k]++
			if m[k] < m1[k] {
				break
			}
			m[k] = m0[k]
		}
		if k < 0 {
			return dst
		}
	}
}

// stageBlocks returns all blocks of one stage orientation at the given
// parity.
func (c *Config) stageBlocks(parity int, glued uint) []Block {
	return c.latticeBlocks(nil, parity, glued, func(k int) int {
		if glued&(1<<uint(k)) != 0 {
			return c.expandOff(k)
		}
		return 0
	})
}

// diamondBlocks returns all merged B_d+B_0 diamond blocks on the
// lattice of the given parity.
func (c *Config) diamondBlocks(parity int) []Block {
	return c.latticeBlocks(nil, parity, 0, func(int) int { return 0 })
}

// orientations returns all glued-dimension bitmasks of the given
// popcount, in increasing mask order.
func orientations(d, i int) []uint {
	var out []uint
	for g := uint(0); g < 1<<uint(d); g++ {
		if bits.OnesCount(g) == i {
			out = append(out, g)
		}
	}
	return out
}

// Regions builds the complete schedule for advancing the domain by
// steps time steps: a sequence of parallel regions whose sequential
// execution (with any intra-region interleaving) is correct. Block
// lists are computed once per lattice parity and shared across phases,
// so the schedule costs O(blocks) memory regardless of steps.
func (c *Config) Regions(steps int) []Region {
	d := c.Dims()
	var out []Region
	if c.Merge {
		var diamonds [2][]Block
		var stages [2][][]Block
		for parity := 0; parity < 2; parity++ {
			diamonds[parity] = c.diamondBlocks(parity)
			for i := 1; i < d; i++ {
				var blocks []Block
				for _, g := range orientations(d, i) {
					blocks = append(blocks, c.stageBlocks(parity, g)...)
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
	var stages [2][][]Block
	for parity := 0; parity < 2; parity++ {
		for i := 0; i <= d; i++ {
			var blocks []Block
			for _, g := range orientations(d, i) {
				blocks = append(blocks, c.stageBlocks(parity, g)...)
			}
			stages[parity] = append(stages[parity], blocks)
		}
	}
	for q := 0; q*c.BT < steps; q++ {
		t0, t1 := clampWindow(q*c.BT, (q+1)*c.BT, steps)
		for i := 0; i <= d; i++ {
			out = append(out, Region{T0: t0, T1: t1, Ref: q * c.BT, Stage: i,
				Group: c.Coarsen.Factor(i), Blocks: stages[q&1][i]})
		}
	}
	return out
}

func clampWindow(t0, t1, steps int) (int, int) {
	if t0 < 0 {
		t0 = 0
	}
	if t1 > steps {
		t1 = steps
	}
	return t0, t1
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// wrap returns v mod n in [0, n) for n > 0.
func wrap(v, n int) int {
	if v %= n; v < 0 {
		v += n
	}
	return v
}
