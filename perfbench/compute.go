package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"tessellate"
	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/model"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/server"
	"tessellate/internal/stencil"
)

// computeWorkload is a workload of repeated timed solves on one
// tessellate.Engine, each from the seeded state. The naive oracle runs
// once, on the workload's own grid, and every solve's checksum must
// equal its result bitwise.
type computeWorkload struct {
	threads int
	// kernel is the box kernel the solve spends its time in; a logical
	// update applies it kernelApps times and costs flops flops.
	kernel     *stencil.Spec
	kernelApps int
	flops      int
	// setup allocates and seeds the grid and builds everything a solve
	// needs: the part of a run a user pays before the first step.
	setup func(eng *tessellate.Engine, seed int64) (*computeState, error)
}

// computeState is one set-up of a compute workload.
type computeState struct {
	updates  float64        // logical updates per solve
	sched    *core.Schedule // the schedule a solve executes
	mask     *grid.Mask     // nil when unmasked
	reseed   func()         // restore the seeded state
	solve    func(eng *tessellate.Engine) error
	oracle   func(pool *par.Pool) error
	checksum func() float64
}

// heat3dFig11a is heat-3d 7-point on an n³ grid (Fig 11a: n = 256) with
// the paper's Table 4 tiling, BT = 6 and Big = 24³, in 24-step solves.
func heat3dFig11a(n int) *computeWorkload {
	const steps, bt, big = 24, 6, 24
	spec := stencil.Heat3D
	opt := tessellate.Options{TimeTile: bt, Block: []int{big, big, big}}
	return &computeWorkload{
		threads: 2, kernel: spec, kernelApps: 1, flops: spec.Flops,
		setup: func(eng *tessellate.Engine, seed int64) (*computeState, error) {
			g := eng.AllocGrid3D(n, n, n, 1, 1, 1)
			reseed := func() { server.SeedGrid3D(g, spec.Name, seed, 1) }
			reseed()
			cfg := tessConfig([]int{n, n, n}, spec.Slopes, bt, opt.Block)
			sched, err := core.NewSchedule(&cfg, steps)
			if err != nil {
				return nil, err
			}
			return &computeState{
				updates: float64(n) * float64(n) * float64(n) * steps,
				sched:   sched,
				reseed:  reseed,
				solve:   func(e *tessellate.Engine) error { return e.Run3D(g, spec, steps, opt) },
				oracle: func(p *par.Pool) error {
					naive.Run3D(g, spec, steps, p)
					return nil
				},
				checksum: func() float64 { return server.Checksum3D(g) },
			}, nil
		},
	}
}

// rk2LShape is the SSP-RK2 heat stepper (two heat-2d stages and a ½/½
// blend) on the built-in lshape mask of an n² grid, BT = 8, in 64-step
// solves through the fused pipeline executor.
func rk2LShape(n int) *computeWorkload {
	const steps, bt = 64, 8
	spec := stencil.Heat2D
	p := &tessellate.Pipeline{Name: "ssp-rk2-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
		{Spec: spec, In: 0},
		{Spec: spec, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}}
	opt := tessellate.Options{TimeTile: bt}
	return &computeWorkload{
		threads: 2, kernel: spec, kernelApps: 2, flops: 2*spec.Flops + 3,
		setup: func(eng *tessellate.Engine, seed int64) (*computeState, error) {
			m, err := grid.NamedMask("lshape", []int{n, n})
			if err != nil {
				return nil, err
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			slopes := p.Slopes()
			g := eng.AllocGrid2D(n, n, slopes[0], slopes[1])
			reseed := func() { server.SeedGrid2D(g, spec.Name, seed, 1) }
			reseed()
			cfg := tessConfig([]int{n, n}, slopes, bt, nil)
			sched, err := core.NewSchedule(&cfg, steps)
			if err != nil {
				return nil, err
			}
			return &computeState{
				updates:  float64(m.ActiveCount()) * steps,
				sched:    sched,
				mask:     m,
				reseed:   reseed,
				solve:    func(e *tessellate.Engine) error { return e.RunPipeline2D(g, p, steps, m, opt) },
				oracle:   func(pool *par.Pool) error { return naive.RunPipeline2D(g, p, steps, pool, m) },
				checksum: func() float64 { return server.Checksum2D(g) },
			}, nil
		},
	}
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// minSolves keeps a median meaningful when a window is shorter than
// a few solves.
const minSolves = 3

func runCompute(r *run, w *computeWorkload) error {
	eng := tessellate.NewEngine(w.threads)
	defer eng.Close()
	pool := par.NewPool(w.threads)
	defer pool.Close()

	// A traced run records spans around set-up and the oracle, runs its
	// untraced half with telemetry off, then its traced half.
	tracer := r.tracer
	tracing := func(on bool) {
		if tracer == nil {
			return
		}
		if on {
			r.startTracing(tracer)
		} else {
			r.stopTracing()
		}
	}

	var (
		st     *computeState
		want   float64
		naiveS float64
	)
	solve := func(e *tessellate.Engine) (float64, error) {
		st.reseed()
		// Every solve starts from the same heap state, so what a solve
		// allocates costs the same each time instead of depending on
		// where the collector's cycle happens to fall.
		runtime.GC()
		start := time.Now()
		if err := st.solve(e); err != nil {
			return 0, err
		}
		sec := time.Since(start).Seconds()
		r.span("solve", 0, start)
		got := st.checksum()
		r.check(got == want, "solve checksum %v != naive %v", got, want)
		return sec, nil
	}
	window := func(seconds float64) ([]float64, error) {
		var times []float64
		end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for len(times) < minSolves || time.Now().Before(end) {
			sec, err := solve(eng)
			if err != nil {
				return nil, err
			}
			times = append(times, sec)
		}
		return times, nil
	}

	// The untraced window is split over setupReps set-ups, each on
	// freshly allocated memory, so the median spans several physical
	// placements of the grid rather than one process's luck.
	span := r.seconds
	if r.trace {
		span /= 2
	}
	var plain []float64
	var parts [][]float64 // the untraced solve times of each set-up
	setups := make([]float64, setupReps)
	for i := range setups {
		if st != nil {
			// Return the previous set-up's memory so each one pays
			// what a fresh process pays and the peak RSS stays one
			// set-up's.
			st = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		tracing(true)
		start := time.Now()
		s, err := w.setup(eng, r.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		r.span("setup", 0, start)
		st = s
		if i == 0 {
			start := time.Now()
			if err := st.oracle(pool); err != nil {
				return fmt.Errorf("naive oracle: %w", err)
			}
			naiveS = time.Since(start).Seconds()
			r.span("naive", 0, start)
			want = st.checksum()
		}
		tracing(false)
		if _, err := solve(eng); err != nil { // warm-up
			return err
		}
		times, err := window(span / setupReps)
		if err != nil {
			return err
		}
		plain = append(plain, times...)
		parts = append(parts, times)
	}
	r.set("setup_s", median(setups))
	r.note("setup_s.samples", len(setups))

	if !r.trace {
		// The rate and the tail are taken per set-up and the median
		// set-up's reported, so a burst of host noise during one set-up's
		// share of the window does not move them.
		q := tailQ(len(plain))
		var rates, tails []float64
		for _, p := range parts {
			sum := 0.0
			for _, t := range p {
				sum += t
			}
			rates = append(rates, float64(len(p))/sum)
			tails = append(tails, quantile(p, q))
		}
		r.set("mlups", st.updates/median(plain)/1e6)
		r.set("jobs_per_s", median(rates))
		r.set("latency_p50_s", median(plain))
		r.set("latency_p99_s", median(tails))
		r.note("latency_p99_s.percentile", 100*q)
		r.note("solves", len(plain))
		r.note("solve_s.iqr_frac", iqrFrac(plain))
		return nil
	}

	// The scaling figure's single-thread solve, then the traced half.
	one := tessellate.NewEngine(1)
	oneS, err := solve(one)
	one.Close()
	if err != nil {
		return err
	}
	tracing(true)
	traced, err := window(span)
	if err != nil {
		return err
	}
	r.note("solves", map[string]int{"untraced": len(plain), "traced": len(traced), "one_thread": 1})

	exec := median(plain)
	r.set("core.exec_s", exec)
	r.set("trace.overhead_frac", (median(traced)-exec)/exec)
	r.set("par.scaling_eff", oneS/(float64(w.threads)*exec))
	naiveMLUPS := st.updates / naiveS / 1e6
	r.set("naive.mlups", naiveMLUPS)
	r.set("core.speedup_vs_naive", naiveS/exec)
	r.set("grid.mask_mixed_frac", mixedFrac(st.sched, st.mask))

	kernelS, err := layerCommon(r, pool, w.threads, w.kernel, w.flops, st.sched, exec)
	if err != nil {
		return err
	}
	r.set("core.nonkernel_frac", 1-st.updates*float64(w.kernelApps)*kernelS/float64(w.threads)/exec)

	// The serving layer is not on a compute workload's path; its
	// metrics here come from a short closed-loop probe sweep.
	return serveProbe(r, 2)
}

// layerCommon measures the per-layer metrics every workload reports
// the same way: the kernel (returning its seconds per update), the
// computed traffic, streaming, the schedule, CountBox, arena checkout
// and pool dispatch. exec is the workload's median execution time,
// over which the dispatch share is taken.
func layerCommon(r *run, pool *par.Pool, workers int, spec *stencil.Spec, flops int, sched *core.Schedule, exec float64) (float64, error) {
	start := time.Now()
	kernelS, tier := kernelCost(spec, r.seed)
	r.span("probe.kernel", 0, start)
	r.note("kernel", map[string]string{"name": spec.Name, "tier": tier.String()})
	r.set("stencil.kernel_gflops", float64(spec.Flops)/kernelS/1e9)

	bytes := model.TessellationTraffic(sched.Config(), 64)
	r.set("model.bytes_per_update", bytes)
	r.set("stencil.flops_per_byte", float64(flops)/bytes)
	r.note("computed", []string{"model.bytes_per_update", "stencil.flops_per_byte"})

	start = time.Now()
	r.set("mem.stream_gbs", streamGBs(pool, pool.Workers()))
	r.span("probe.stream", 0, start)
	r.note("mem.stream_bytes_per_array", 8*streamElems)

	start = time.Now()
	build, regions, visits, err := scheduleStats(sched)
	if err != nil {
		return 0, err
	}
	r.span("probe.schedule", 0, start)
	r.set("core.schedule_build_s", build)
	r.set("core.regions", float64(regions))
	r.set("core.block_visits", float64(visits))

	start = time.Now()
	ns, err := countBoxNS(r.seed)
	if err != nil {
		return 0, err
	}
	r.span("probe.countbox", 0, start)
	r.set("grid.mask_countbox_ns", ns)

	start = time.Now()
	r.set("grid.arena_checkout_us", arenaCheckoutUS())
	r.span("probe.arena", 0, start)

	start = time.Now()
	d := dispatchUS(pool, workers)
	r.span("probe.dispatch", 0, start)
	r.set("par.dispatch_us", d)
	r.set("par.barrier_share", float64(regions)*d*1e-6/exec)
	return kernelS, nil
}
