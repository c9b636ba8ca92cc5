package main

import (
	"math/rand"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/server"
	"tessellate/internal/stencil"
)

// Layer probes: each times calls into one layer's public functions in
// isolation and returns the median over batches.

const probeBatches = 15

// batchMedian runs fn probeBatches times after one warm-up call and
// returns the median duration divided by per (the operations one call
// performs).
func batchMedian(per float64, fn func()) float64 {
	fn()
	secs := make([]float64, probeBatches)
	for i := range secs {
		start := time.Now()
		fn()
		secs[i] = time.Since(start).Seconds() / per
	}
	return median(secs)
}

// kernelCost times the box kernel spec.Resolve2D/3D picks for the
// active path on an L2-resident box (two buffers of about 1.1 MB),
// seeded from seed, and returns single-thread seconds per point update
// and the tier that answered.
func kernelCost(spec *stencil.Spec, seed int64) (float64, stencil.Path) {
	const calls = 20
	switch spec.Dims {
	case 2:
		g := grid.NewGrid2D(256, 256, spec.Slopes[0], spec.Slopes[1])
		server.SeedGrid2D(g, spec.Name, seed, 1)
		k, tier := spec.Resolve2D(stencil.ActivePath())
		base := g.Idx(0, 0)
		return batchMedian(float64(calls*g.NX*g.NY), func() {
			for i := 0; i < calls; i++ {
				k(g.Buf[(i+1)&1], g.Buf[i&1], base, g.NX, g.NY, g.SY)
			}
		}), tier
	default:
		g := grid.NewGrid3D(40, 40, 40, spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
		server.SeedGrid3D(g, spec.Name, seed, 1)
		k, tier := spec.Resolve3D(stencil.ActivePath())
		base := g.Idx(0, 0, 0)
		return batchMedian(float64(calls*g.NX*g.NY*g.NZ), func() {
			for i := 0; i < calls; i++ {
				k(g.Buf[(i+1)&1], g.Buf[i&1], base, g.NX, g.NY, g.NZ, g.SY, g.SX)
			}
		}), tier
	}
}

// streamElems sizes each of the triad's three arrays at 32 MiB: about
// the heat3d-fig11a working set in total, so inside the shared L3 of
// the reference host. It is a streaming figure for that regime, not a
// DRAM bandwidth.
const streamElems = 1 << 22

// streamGBs measures a parallel triad a = b + 3c over workers and
// returns GB/s, counting two reads and one write per element.
func streamGBs(pool *par.Pool, workers int) float64 {
	a := make([]float64, streamElems)
	b := make([]float64, streamElems)
	c := make([]float64, streamElems)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	sec := batchMedian(1, func() {
		pool.For(workers, func(w int) {
			lo, hi := w*streamElems/workers, (w+1)*streamElems/workers
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
	})
	return 24 * streamElems / sec / 1e9
}

// dispatchUS is the cost of one Pool.For over workers empty tasks, in
// microseconds.
func dispatchUS(pool *par.Pool, workers int) float64 {
	const calls = 200
	body := func(int) {}
	return 1e6 * batchMedian(calls, func() {
		for i := 0; i < calls; i++ {
			pool.For(workers, body)
		}
	})
}

// countSink keeps the CountBox probe's results live.
var countSink int

// countBoxNS times Mask.CountBox on the built-in 1024x1024 lshape mask
// over 1024 seed-chosen boxes of up to 64x64, in ns per call.
func countBoxNS(seed int64) (float64, error) {
	const n, boxes = 1024, 1024
	m, err := grid.NamedMask("lshape", []int{n, n})
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	lo := make([][]int, boxes)
	hi := make([][]int, boxes)
	for i := range lo {
		x, y := rng.Intn(n-64), rng.Intn(n-64)
		lo[i] = []int{x, y}
		hi[i] = []int{x + 1 + rng.Intn(64), y + 1 + rng.Intn(64)}
	}
	const passes = 20
	return 1e9 * batchMedian(passes*boxes, func() {
		for p := 0; p < passes; p++ {
			for i := range lo {
				countSink += m.CountBox(lo[i], hi[i])
			}
		}
	}), nil
}

// arenaCheckoutUS is a warm Arena.Grid2D + Release of a serving-size
// 128x128 grid, in microseconds.
func arenaCheckoutUS() float64 {
	const calls = 1000
	a := grid.NewArena(nil, 0, 0)
	a.Release(a.Grid2D(128, 128, 1, 1))
	return 1e6 * batchMedian(calls, func() {
		for i := 0; i < calls; i++ {
			a.Release(a.Grid2D(128, 128, 1, 1))
		}
	})
}

// tessConfig mirrors how tessellate.Options{TimeTile: bt, Block:
// block} resolves to a core.Config, so the benchmark can build and
// inspect the schedule an Engine run executes.
func tessConfig(n, slopes []int, bt int, block []int) core.Config {
	cfg := core.DefaultConfig(n, slopes)
	cfg.BT = bt
	for k := range cfg.Big {
		cfg.Big[k] = 4 * bt * slopes[k]
	}
	if len(block) == len(n) {
		copy(cfg.Big, block)
	}
	cfg.Merge = true
	return cfg
}

// scheduleStats returns the median core.NewSchedule build time over
// five builds of sched's shape, its region count and its block visits
// (blocks summed over regions, each executed once per region).
func scheduleStats(sched *core.Schedule) (buildS float64, regions, visits int, err error) {
	builds := make([]float64, 5)
	for i := range builds {
		start := time.Now()
		if _, err := core.NewSchedule(sched.Config(), sched.Steps()); err != nil {
			return 0, 0, 0, err
		}
		builds[i] = time.Since(start).Seconds()
	}
	for _, rg := range sched.Regions() {
		visits += len(rg.Blocks)
	}
	return median(builds), len(sched.Regions()), visits, nil
}

// mixedFrac is the share of the schedule's non-empty clipped boxes
// (one per block and time step) that m's CountBox classifies as mixed:
// partly active, so executed as guarded row segments. 0 without a
// mask, where every box is fully active.
func mixedFrac(sched *core.Schedule, m *grid.Mask) float64 {
	if m == nil {
		return 0
	}
	cfg := sched.Config()
	lo, hi := make([]int, len(cfg.N)), make([]int, len(cfg.N))
	total, mixed := 0, 0
	regions := sched.Regions()
	for ri := range regions {
		rg := &regions[ri]
		for bi := range rg.Blocks {
			for t := rg.T0; t < rg.T1; t++ {
				if !cfg.ClippedBounds(rg, &rg.Blocks[bi], t, lo, hi) {
					continue
				}
				vol := 1
				for k := range lo {
					vol *= hi[k] - lo[k]
				}
				total++
				if c := m.CountBox(lo, hi); c > 0 && c < vol {
					mixed++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mixed) / float64(total)
}
