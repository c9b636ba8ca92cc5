// Package core implements the paper's contribution: the two-level
// tessellation tiling scheme for Jacobi stencils (§3), its coarsened
// per-dimension parametrisation and the B_d+B_0 merging optimisation
// (§4), fast executors for 1D/2D/3D grids, a formula-driven executor
// for any dimension, and a schedule validator that turns Theorems
// 3.5/3.6 into executable checks.
//
// # Geometry in one paragraph
//
// Time is cut into phases of BT steps. Within a phase, stage i
// tessellates the data space with blocks B_i; a block glued along the
// dimension set G updates, at local step u in [0, BT), an axis-aligned
// box: glued dimensions expand by Slope per step, the others shrink.
// With per-dimension coarse size Big[k] (paper §4.2), the small size is
// Small[k] = Big[k] - 2*BT*Slope[k], the block lattice has spacing
// Spacing[k] = Big[k]+Small[k], and the lattice shifts by Spacing[k]/2
// every phase so that B_d blocks of one phase coincide with B_0 blocks
// of the next and can be merged into (d+1)-dimensional diamonds (§4.3).
package core

import "fmt"

// Config parametrises a tessellation of a d-dimensional iteration
// space. The zero value is invalid; fill every field (or use
// NewConfig or DefaultConfig) and call Validate.
type Config struct {
	// N is the spatial domain extent per dimension (len(N) == d).
	N []int
	// Slopes is the stencil dependence slope per dimension (the
	// paper's XSLOPE/YSLOPE); equal to the stencil order.
	Slopes []int
	// BT is the time-tile height b: every phase advances all points by
	// BT steps and costs d synchronizations (d+1 unmerged).
	BT int
	// Big is the coarse spatial block size per dimension (the paper's
	// Bx/By). Big[k] must be at least 2*BT*Slopes[k].
	Big []int
	// Merge enables the §4.3 optimisation: B_d of each phase and B_0 of
	// the next execute as one (d+1)-dimensional diamond block, saving
	// one synchronization per phase and improving reuse.
	Merge bool
	// Coarsen sets the §4.2 dispatch coarsening factor per stage: a
	// factor of c groups c adjacent blocks of a stage's parallel
	// regions into one scheduled work item. The zero value (no
	// coarsening) dispatches one item per block.
	Coarsen Coarsening
	// Periodic selects wrap-around boundaries (paper §3.6, the case
	// where every N[k] is a multiple of the lattice period Spacing(k)):
	// the schedule holds exactly one lattice period of blocks per
	// dimension, their boxes are not clipped to the domain, and every
	// coordinate wraps mod N. Only RunND executes periodic schedules;
	// Run rejects them.
	Periodic bool
}

// DefaultConfig returns the configuration of a plain one-stencil run
// on the given domain and slopes: NewConfig with one stencil stage and
// every tiling choice left to it. Empirically this beats the naive
// sweep on grids larger than the private caches and is at least at
// parity on 2D grids that fit L2; serious runs should still tune
// Big/BT.
func DefaultConfig(n, slopes []int) Config {
	return NewConfig(n, slopes, 1, 0, nil, false, nil)
}

// NewConfig builds the configuration for the given domain and slopes
// from the run's stencil-stage count and the user-facing tiling
// choices. A block with one entry per dimension sets Big; otherwise
// Big follows one of two shapes, each dimension clamped to the domain:
//
//   - L1 tiles, for 2D runs with exactly one stencil stage (a plain
//     spec, or one stencil plus pointwise blends): Big =
//     max(2*BT*slope, 32) x max(2*BT*slope, 64), and bt < 1 picks
//     BT = 16/slope, the largest BT that keeps the short side at 32.
//     Two buffers of a 32x64 tile plus halos come to about 36 KiB, so
//     a block visit's BT steps run out of a 48 KiB L1d instead of
//     streaming the tile from L2 on every step.
//   - The §4.2 shape, for everything else: 8*BT*slope, with the
//     unit-stride dimension coarsened to twice that (e.g. 128x256 for
//     heat-2d at BT=16), and bt < 1 picks BT = 16. Short unit-stride
//     rows cost the kernel more per point than long ones, and a
//     pipeline with two or more stencil stages recomputes an
//     intermediate ring around every tile, so these keep the larger
//     L2-sized tile.
//
// A default BT is halved until a few blocks fit per dimension. noMerge
// turns off the §4.3 merging; a non-empty coarsen is the dispatch
// coarsening vector. The result is not validated.
func NewConfig(n, slopes []int, stencilStages, bt int, block []int, noMerge bool, coarsen []int) Config {
	d := len(n)
	l1 := d == 2 && stencilStages == 1 && len(block) != d
	if bt < 1 {
		bt = 16
		if l1 {
			bt = maxOf(1, 16/maxOf(slopes[0], slopes[1]))
		}
		for k, nk := range n {
			// Keep at least a couple of blocks per dimension.
			for bt > 1 && 4*bt*slopes[k] > nk {
				bt /= 2
			}
		}
	}
	big := make([]int, d)
	if len(block) == d {
		copy(big, block)
	} else {
		for k, nk := range n {
			switch {
			case l1:
				big[k] = maxOf(2*bt*slopes[k], [2]int{32, 64}[k])
			case k == d-1 && d > 1:
				big[k] = 16 * bt * slopes[k] // coarsen the unit-stride dimension
			default:
				big[k] = 8 * bt * slopes[k]
			}
			if big[k] > nk {
				big[k] = maxOf(2*bt*slopes[k], nk-nk%2)
			}
		}
	}
	cfg := Config{N: append([]int(nil), n...), Slopes: append([]int(nil), slopes...), BT: bt, Big: big, Merge: !noMerge}
	if len(coarsen) > 0 {
		cfg.Coarsen = Coarsening{PerStage: append([]int(nil), coarsen...)}
	}
	return cfg
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dims returns the spatial dimensionality d.
func (c *Config) Dims() int { return len(c.N) }

// Small returns the small block size of dimension k:
// Big[k] - 2*BT*Slopes[k], the extent of a B_d block's starting region.
func (c *Config) Small(k int) int { return c.Big[k] - 2*c.BT*c.Slopes[k] }

// Spacing returns the block lattice period of dimension k.
func (c *Config) Spacing(k int) int { return c.Big[k] + c.Small(k) }

// Validate checks the configuration and returns a descriptive error if
// it cannot produce a correct schedule.
func (c *Config) Validate() error {
	d := c.Dims()
	if d == 0 {
		return fmt.Errorf("core: empty domain")
	}
	if len(c.Slopes) != d || len(c.Big) != d {
		return fmt.Errorf("core: rank mismatch: N=%v Slopes=%v Big=%v", c.N, c.Slopes, c.Big)
	}
	if c.BT < 1 {
		return fmt.Errorf("core: BT=%d, must be >= 1", c.BT)
	}
	for k := 0; k < d; k++ {
		if c.N[k] < 1 {
			return fmt.Errorf("core: N[%d]=%d, must be >= 1", k, c.N[k])
		}
		if c.Slopes[k] < 1 {
			return fmt.Errorf("core: Slopes[%d]=%d, must be >= 1", k, c.Slopes[k])
		}
		if small := c.Small(k); small < 0 {
			return fmt.Errorf("core: Big[%d]=%d too small for BT=%d slope=%d (need >= %d)",
				k, c.Big[k], c.BT, c.Slopes[k], 2*c.BT*c.Slopes[k])
		}
		if sp := c.Spacing(k); c.Periodic && c.N[k]%sp != 0 {
			return fmt.Errorf("core: periodic run needs N[%d] (%d) to be a multiple of the lattice period %d (paper §3.6 block stretching is not implemented; choose Big/BT so that Big+Small divides N)",
				k, c.N[k], sp)
		}
	}
	return c.Coarsen.validate(d)
}

// SyncsPerPhase returns the number of synchronizations each phase of BT
// time steps costs: d when merging, d+1 otherwise (paper Table 1 plus
// §4.3).
func (c *Config) SyncsPerPhase() int {
	if c.Merge {
		return c.Dims()
	}
	return c.Dims() + 1
}
