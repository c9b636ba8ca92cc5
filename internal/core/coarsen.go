package core

import "fmt"

// Per-stage coarsening (§4.2, generalised). The paper's coarsening
// factor amortises per-block overhead by enlarging blocks; one global
// factor cannot fit every stage, because the B_0 hypercube and the
// glued stage blocks have very different surface-to-volume ratios and
// therefore very different per-block costs. This file generalises the
// knob to a per-stage vector applied at dispatch granularity: a factor
// of c groups c adjacent blocks of one parallel region into a single
// scheduled work item. The region's block set — and hence the update
// box of every (block, t) pair — is untouched, so Theorem 3.5's exact
// tessellation is preserved by construction; only the scheduling grain
// changes. Grouping also unlocks a bounds-hoisting fast path in the
// executors: all blocks of one orientation share their box shape at
// each time step, so a group computes the clipping once and replays it
// per block (see groupPlan).

// MaxCoarsen is the largest per-stage coarsening factor. The executors
// track a group's interior blocks in a single uint64 bitmask, so the
// factor is capped at 64; Factor clamps silently, Validate rejects
// larger values with a descriptive error.
const MaxCoarsen = 64

// Coarsening selects the dispatch coarsening factor per tessellation
// stage. PerStage[i] applies to stage-i regions (i = the number of
// glued dimensions); merged B_d+B_0 diamond regions (§4.3) use
// PerStage[0], the slot of the B_0 blocks they absorb. A single entry
// applies uniformly to every stage (the old global knob); an empty
// vector means no coarsening (factor 1 everywhere). A vector shorter
// than the stage count extends with its last entry.
type Coarsening struct {
	PerStage []int
}

// Uniform returns a coarsening that applies the same factor to every
// stage.
func Uniform(factor int) Coarsening {
	return Coarsening{PerStage: []int{factor}}
}

// Factor returns the effective factor for the given stage index,
// clamped to [1, MaxCoarsen].
func (c Coarsening) Factor(stage int) int {
	if len(c.PerStage) == 0 {
		return 1
	}
	i := stage
	if i >= len(c.PerStage) {
		i = len(c.PerStage) - 1
	}
	f := c.PerStage[i]
	if f < 1 {
		return 1
	}
	if f > MaxCoarsen {
		return MaxCoarsen
	}
	return f
}

// validate rejects malformed vectors for a d-dimensional config.
func (c Coarsening) validate(d int) error {
	if len(c.PerStage) > d+1 {
		return fmt.Errorf("core: coarsening vector %v longer than stage count %d (stages 0..%d)",
			c.PerStage, d+1, d)
	}
	for i, f := range c.PerStage {
		if f < 1 || f > MaxCoarsen {
			return fmt.Errorf("core: coarsening factor PerStage[%d]=%d out of range [1, %d]", i, f, MaxCoarsen)
		}
	}
	return nil
}

// groupSize returns the region's effective dispatch group size.
func (r *Region) groupSize() int {
	if r.Group < 1 {
		return 1
	}
	if r.Group > MaxCoarsen {
		return MaxCoarsen
	}
	return r.Group
}

// Tasks returns the number of dispatch work items the region's blocks
// are grouped into: ceil(len(Blocks)/groupSize).
func (r *Region) Tasks() int {
	g := r.groupSize()
	return (len(r.Blocks) + g - 1) / g
}

// Span returns the half-open block index range [b0, b1) of work item
// gi. The spans of all work items partition the block list exactly.
func (r *Region) Span(gi int) (b0, b1 int) {
	g := r.groupSize()
	b0 = gi * g
	b1 = b0 + g
	if b1 > len(r.Blocks) {
		b1 = len(r.Blocks)
	}
	return b0, b1
}

// groups splits ascending block indices of r into dispatch groups:
// maximal runs of consecutive indices inside one work item's Span, so
// a list of every block groups exactly as the work items do.
func (r *Region) groups(blocks []int) [][2]int {
	g := r.groupSize()
	var out [][2]int
	for i, bi := range blocks {
		if i > 0 && bi == blocks[i-1]+1 && bi%g != 0 {
			out[len(out)-1][1]++
		} else {
			out = append(out, [2]int{bi, bi + 1})
		}
	}
	return out
}

// groupPlan classifies the blocks of one dispatch group [b0, b1) for
// the hoisted-bounds fast path. It reports whether the group is
// uniform (every block shares one orientation, hence one box shape per
// time step — always true for diamonds) and, when it is, a bitmask of
// the blocks that stay strictly inside the domain over the region's
// whole time window. Interior blocks never clip, so the executor
// computes the representative's bounds once per time step and replays
// them per block as pure origin offsets; edge blocks fall back to
// per-block clipping. lo, hi, minRel and maxRel are caller scratch of
// length Dims.
//
// The interior test exploits monotonicity (Region.extremes): checking
// a block's maximal relative extent against [0, N) at the window's
// extreme times covers every time step.
func (c *Config) groupPlan(r *Region, b0, b1 int, lo, hi, minRel, maxRel []int) (uniform bool, interior uint64) {
	blocks := r.Blocks
	rep := &blocks[b0]
	for bi := b0 + 1; bi < b1; bi++ {
		if blocks[bi].Glued != rep.Glued {
			return false, 0
		}
	}
	ts, nt := r.extremes()
	d := len(lo)
	for i := 0; i < nt; i++ {
		c.Bounds(r, rep, ts[i], lo, hi)
		for k := 0; k < d; k++ {
			rl, rh := lo[k]-rep.Origin[k], hi[k]-rep.Origin[k]
			if i == 0 || rl < minRel[k] {
				minRel[k] = rl
			}
			if i == 0 || rh > maxRel[k] {
				maxRel[k] = rh
			}
		}
	}
	for bi := b0; bi < b1; bi++ {
		b := &blocks[bi]
		in := true
		for k := 0; k < d; k++ {
			if b.Origin[k]+minRel[k] < 0 || b.Origin[k]+maxRel[k] > c.N[k] {
				in = false
				break
			}
		}
		if in {
			interior |= 1 << uint(bi-b0)
		}
	}
	return true, interior
}

// extremes returns the times of region r's window at which a block's
// bounds take their extreme values, and how many there are: the
// window's ends, and for a diamond the waist where the slope flips
// sign. Each bound is piecewise affine in t, so the box at any time of
// the window lies inside the bounding box of the boxes at these times.
func (r *Region) extremes() (ts [3]int, n int) {
	ts, n = [3]int{r.T0, r.T1 - 1, 0}, 2
	if r.Diamond {
		ts[2], n = min(max(r.Ref-1, r.T0), r.T1-1), 3
	}
	return ts, n
}
