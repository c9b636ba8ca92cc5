// Package skew implements classic time-skewed (parallelepiped) tiling
// [Wonnacott; Song & Li]: space is skewed by the dependence slope so
// that rectangular space-time tiles become legal, and tiles execute in
// a pipelined wavefront. This is the "limited concurrency, pipelined
// start-up" baseline the paper contrasts with concurrent-start schemes.
//
// Geometry: with skewed position p_k = x_k + t*S_k, a tile is
// (J, I_0..I_{d-1}): time band t in [J*BT, (J+1)*BT), skewed extent
// p_k in [I_k*BX_k, (I_k+1)*BX_k). Tile dependences point to smaller
// (J, I) in every coordinate, so tiles on the same wavefront
// w = J + sum(I_k) are independent and safe under double buffering
// (atomic tiles; see the liveness argument in DESIGN.md).
package skew

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Config parametrises the skewed tiling.
type Config struct {
	BT int   // time band height
	BX []int // skewed spatial tile extent per dimension
}

// Validate checks the configuration for a d-dimensional run.
func (c *Config) Validate(d int) error {
	if c.BT < 1 {
		return fmt.Errorf("skew: BT=%d, must be >= 1", c.BT)
	}
	if len(c.BX) != d {
		return fmt.Errorf("skew: BX rank %d != %d", len(c.BX), d)
	}
	for k, b := range c.BX {
		if b < 1 {
			return fmt.Errorf("skew: BX[%d]=%d, must be >= 1", k, b)
		}
	}
	return nil
}

// tileGrid describes the tile index space of one run.
type tileGrid struct {
	cfg    Config
	n      []int // domain extents
	slopes []int
	steps  int
	bands  int
	nt     []int // tiles per spatial dimension
}

func newTileGrid(cfg Config, n, slopes []int, steps int) tileGrid {
	tg := tileGrid{cfg: cfg, n: n, slopes: slopes, steps: steps}
	tg.bands = (steps + cfg.BT - 1) / cfg.BT
	tg.nt = make([]int, len(n))
	for k := range n {
		// Skewed positions span [0, N + steps*S).
		tg.nt[k] = (n[k] + steps*slopes[k] + cfg.BX[k] - 1) / cfg.BX[k]
	}
	return tg
}

// box sets [lo, hi) to the unskewed spatial box of the tile with
// spatial index idx at global time t, clipped to the domain, and
// reports whether it is non-empty.
func (tg *tileGrid) box(idx []int, t int, lo, hi *[3]int) bool {
	for k, i := range idx {
		p := i*tg.cfg.BX[k] - t*tg.slopes[k] // unskewed start at time t
		lo[k], hi[k] = max(p, 0), min(p+tg.cfg.BX[k], tg.n[k])
		if lo[k] >= hi[k] {
			return false
		}
	}
	return true
}

// Run advances the grid v views by steps time steps.
func Run(v grid.View, s *stencil.Spec, steps int, cfg Config, pool *par.Pool) error {
	if err := cfg.Validate(v.D); err != nil {
		return err
	}
	// One kernel resolution per run through the shared path selector
	// (see core.SetKernelPath), like every other scheme.
	k, _, err := s.ResolveBox(v.D, stencil.ActivePath())
	if err != nil {
		return fmt.Errorf("skew: %w", err)
	}
	tg := newTileGrid(cfg, v.N[:v.D], s.Slopes, steps)
	forEachWavefront(pool, tg.bands, tg.nt, func(j int, idx []int) {
		for t := j * cfg.BT; t < min((j+1)*cfg.BT, steps); t++ {
			var lo, hi [3]int
			if tg.box(idx, t, &lo, &hi) {
				base, n := v.Box(lo, hi)
				k(v.Dst(t), v.Src(t), base, n, v.S)
			}
		}
	})
	*v.Step += steps
	return nil
}

// forEachWavefront executes body for every tile (band j, spatial index
// idx), sweeping wavefronts w = j + sum(idx) in order with a barrier
// between consecutive wavefronts; tiles within one wavefront run in
// parallel. This is the pipelined start-up the paper attributes to time
// skewing: early wavefronts hold few tiles.
func forEachWavefront(pool *par.Pool, bands int, nt []int, body func(j int, idx []int)) {
	d := len(nt)
	maxW := bands - 1
	for _, n := range nt {
		maxW += n - 1
	}
	// Enumerate tiles per wavefront. Tile counts are small (thousands),
	// so a simple bucket pass is fine.
	type tile struct {
		j   int
		idx []int
	}
	buckets := make([][]tile, maxW+1)
	idx := make([]int, d)
	var walk func(k, sum int)
	var j int
	walk = func(k, sum int) {
		if k == d {
			buckets[j+sum] = append(buckets[j+sum], tile{j: j, idx: append([]int(nil), idx...)})
			return
		}
		for v := 0; v < nt[k]; v++ {
			idx[k] = v
			walk(k+1, sum+v)
		}
		idx[k] = 0
	}
	for j = 0; j < bands; j++ {
		walk(0, 0)
	}
	for _, b := range buckets {
		b := b
		if len(b) == 0 {
			continue
		}
		pool.For(len(b), func(i int) { body(b[i].j, b[i].idx) })
	}
}

// Profile returns the number of tiles in each wavefront of a run:
// the concurrency available between consecutive barriers. The ramp at
// the start and end is the pipelined start-up the paper criticises.
func Profile(cfg Config, n, slopes []int, steps int) []int {
	tg := newTileGrid(cfg, n, slopes, steps)
	maxW := tg.bands - 1
	for _, c := range tg.nt {
		maxW += c - 1
	}
	counts := make([]int, maxW+1)
	idx := make([]int, len(tg.nt))
	var walk func(k, sum, j int)
	walk = func(k, sum, j int) {
		if k == len(tg.nt) {
			counts[j+sum]++
			return
		}
		for v := 0; v < tg.nt[k]; v++ {
			idx[k] = v
			walk(k+1, sum+v, j)
		}
	}
	for j := 0; j < tg.bands; j++ {
		walk(0, 0, j)
	}
	return counts
}
