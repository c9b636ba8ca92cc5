package bench

import (
	"fmt"
	"sync"
	"time"

	"tessellate"
	"tessellate/internal/core"
	"tessellate/internal/dist"
	"tessellate/internal/grid"
	"tessellate/internal/overlap"
	"tessellate/internal/stencil"
)

// Experiments are stencilbench's case tables, in the order -compare
// all runs them. Each table's reference variant is the oracle every
// other variant must reproduce bitwise, round by round.
var Experiments = []Experiment{
	{"ablation", ablationCases},
	{"kernels", kernelCases},
	{"coarsening", coarseningCases},
	{"placement", placementCases},
	{"dist", distCases},
	{"pipeline", pipelineCases},
	{"mask", maskCases},
}

// fig10 and fig11a are the Heat-2D and Heat-3D paper workloads most
// experiments run at the requested scale.
func fig10(scale int) Workload  { return ByFigure("10")[0].Scaled(scale) }
func fig11a(scale int) Workload { return ByFigure("11a")[0].Scaled(scale) }

// shrunk scales a sweep sized for the default -scale 16: above 16 its
// extents divide by scale/16, keeping at least two tiles per
// dimension; at 16 and below it is unchanged.
func (w Workload) shrunk(scale int) Workload {
	f := scale / 16
	if f <= 1 {
		return w
	}
	out := w
	out.N = make([]int, len(w.N))
	for k := range w.N {
		out.N[k] = maxInt(w.N[k]/f, 2*w.TessBig[k])
	}
	return out
}

// engineVariant runs w under opt on a fresh engine with placement p,
// over the whole domain, or over the active cells of m when non-nil.
func engineVariant(name string, w Workload, opt tessellate.Options, threads int, p Placement, m *tessellate.Mask) Variant {
	return Variant{Name: name, Run: func(int) (float64, float64, error) {
		return runOnce(w, opt, threads, p, m)
	}}
}

func tessVariant(name string, w Workload, opt tessellate.Options, threads int) Variant {
	opt.Scheme = tessellate.Tessellation
	return engineVariant(name, w, opt, threads, Placement{}, nil)
}

func naiveVariant(w Workload, threads int, m *tessellate.Mask) Variant {
	return engineVariant("naive", w, tessellate.Options{Scheme: tessellate.Naive}, threads, Placement{}, m)
}

func workloadCase(w Workload, variants ...Variant) Case {
	return Case{Workload: w.String(), Updates: float64(w.Updates()), Variants: variants}
}

// ablationCases measures the design choices DESIGN.md calls out on the
// Heat-2D workload against the paper's configuration: B_d+B_0 merging,
// the 2:1 (coarsened, §4.2) against uniform blocks, the time-tile
// height, and the redundant overlapped tiling the paper's introduction
// argues against.
func ablationCases(scale, threads int) ([]Case, error) {
	w := fig10(scale)
	bt, big := w.TessBT, w.TessBig
	ocfg := overlap.Config{BT: bt, BX: []int{16 * bt, 16 * bt}}
	return []Case{workloadCase(w,
		tessVariant("merged, 2:1 blocks (§4.2, §4.3)", w, tessellate.Options{TimeTile: bt, Block: big}, threads),
		tessVariant("unmerged", w, tessellate.Options{TimeTile: bt, Block: big, NoMerge: true}, threads),
		tessVariant("uniform blocks", w, tessellate.Options{TimeTile: bt, Block: []int{big[0], big[0]}}, threads),
		tessVariant("half BT", w, tessellate.Options{TimeTile: maxInt(bt/2, 1), Block: big}, threads),
		tessVariant("double BT", w, tessellate.Options{TimeTile: 2 * bt, Block: []int{8 * bt, 8 * bt}}, threads),
		engineVariant(fmt.Sprintf("overlapped tiling (%.2fx redundant work)", ocfg.RedundancyFactor([]int{1, 1})),
			w, w.Options(tessellate.Overlapped), threads, Placement{}, nil),
	)}, nil
}

// kernelCases measures the three kernel dispatch paths (per-row calls,
// fused scalar block kernels and 4-lane vector kernels) on one
// tessellation schedule, plus a short-row sweep whose tiny tiles clip
// boxes to diamond tips a few points wide, the per-row overhead the
// fused paths amortise. The fused kernels evaluate each point in the
// row kernel's exact order, so the paths agree bitwise. Without vector
// support the simd rows measure the block fallback (see the ledger's
// cpu_features).
func kernelCases(scale, threads int) ([]Case, error) {
	shortRow := []Workload{
		{Figure: "short", Kernel: "heat-2d", N: []int{1024, 1024}, Steps: 64, TessBT: 4, TessBig: []int{16, 16}},
		{Figure: "short", Kernel: "heat-3d", N: []int{128, 128, 128}, Steps: 16, TessBT: 2, TessBig: []int{8, 8, 8}},
	}
	var cases []Case
	for _, w := range []Workload{fig10(scale), fig11a(scale), shortRow[0].shrunk(scale), shortRow[1].shrunk(scale)} {
		c := workloadCase(w)
		for _, path := range []string{"row", "block", "simd"} {
			v := tessVariant(path, w, w.Options(tessellate.Tessellation), threads)
			run := v.Run
			v.Run = func(round int) (float64, float64, error) {
				defer core.SetKernelPath(core.KernelPath())
				if err := core.SetKernelPath(path); err != nil {
					return 0, 0, err
				}
				return run(round)
			}
			c.Variants = append(c.Variants, v)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// coarseningCases measures §4.2's dispatch coarsening on one
// tessellation schedule: uncoarsened and each uniform factor, plus a
// fine-grain sweep whose tiny blocks make per-block dispatch the
// dominant cost. Coarsening regroups dispatch, never geometry, so
// every variant agrees bitwise.
func coarseningCases(scale, threads int) ([]Case, error) {
	fine := []Workload{
		{Figure: "coarse", Kernel: "heat-2d", N: []int{1024, 1024}, Steps: 64, TessBT: 2, TessBig: []int{8, 8}},
		{Figure: "coarse", Kernel: "heat-3d", N: []int{96, 96, 96}, Steps: 16, TessBT: 1, TessBig: []int{4, 4, 4}},
	}
	var cases []Case
	for _, w := range []Workload{fig10(scale), fig11a(scale), fine[0].shrunk(scale), fine[1].shrunk(scale)} {
		opt := w.Options(tessellate.Tessellation)
		c := workloadCase(w, tessVariant("none", w, opt, threads))
		for _, f := range []int{4, 16, 64} {
			o := opt
			o.CoarsenPerStage = []int{f}
			c.Variants = append(c.Variants, tessVariant(fmt.Sprintf("global %d", f), w, o, threads))
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// placementCases measures the sticky block→worker mapping, with and
// without pinning and first-touch allocation, against the dynamic
// baseline, each checked against the naive sweep.
func placementCases(scale, threads int) ([]Case, error) {
	modes := []Placement{{}, {Sticky: true, FirstTouch: true}, {Sticky: true, Pin: true, FirstTouch: true}}
	// Pinning can be refused (cgroups, other platforms); name the
	// pinned rows by what they actually ran.
	probe := tessellate.NewEngineOpts(tessellate.EngineOptions{Threads: threads, Pin: true})
	pinErr := probe.PinError()
	probe.Close()
	var cases []Case
	for _, w := range []Workload{fig10(scale), fig11a(scale)} {
		c := workloadCase(w, naiveVariant(w, threads, nil))
		for _, p := range modes {
			name := p.String()
			if p.Pin && pinErr != nil {
				name += " (unpinned: " + pinErr.Error() + ")"
			}
			c.Variants = append(c.Variants, engineVariant(name, w, w.Options(tessellate.Tessellation), threads, p, nil))
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// distCases runs one heat-2d workload over loopback TCP at 2 and 4
// ranks, with the synchronous and the overlapped exchange, bare and
// with injected per-message latency (a FaultTransport send delay
// standing in for a network RTT), against the single-rank naive
// sweep. The overlapped exchange hides under each region's interior
// blocks instead of serializing with them, which pays once latency is
// no longer free.
func distCases(scale, threads int) ([]Case, error) {
	w := Workload{Kernel: "heat-2d", N: []int{768, 256}, Steps: 24, TessBT: 4, TessBig: []int{16, 32}}
	w = w.shrunk(scale)
	cfg := &core.Config{N: w.N, Slopes: []int{1, 1}, BT: w.TessBT, Big: w.TessBig, Merge: true}
	// Four slabs must each hold the exchange halo.
	w.N[0] = maxInt(w.N[0], 4*dist.ExchangeHalo(cfg))
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cases []Case
	for _, pad := range []time.Duration{0, 500 * time.Microsecond} {
		c := workloadCase(w, naiveVariant(w, threads, nil))
		c.Workload = fmt.Sprintf("heat-2d N=%v T=%d pad=%v/msg, %d regions", w.N, w.Steps, pad, len(cfg.Regions(w.Steps)))
		for _, nranks := range []int{2, 4} {
			for _, overlap := range []bool{false, true} {
				mode := "sync"
				if overlap {
					mode = "overlap"
				}
				c.Variants = append(c.Variants, Variant{
					Name: fmt.Sprintf("%d ranks %s", nranks, mode),
					Run: func(int) (float64, float64, error) {
						return runDistTCP(cfg, w, nranks, pad, overlap, threads)
					},
				})
			}
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// runDistTCP executes one distributed run of w over loopback TCP and
// returns its wall time and gathered checksum. threads is split across
// the ranks (at least one worker each).
func runDistTCP(cfg *core.Config, w Workload, nranks int, pad time.Duration, overlap bool, threads int) (float64, float64, error) {
	spec := stencil.Heat2D
	initial := grid.NewGrid2D(w.N[0], w.N[1], spec.Slopes[0], spec.Slopes[1])
	seed2D(initial, spec.Name)
	addrs := make([]string, nranks)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	ranks := make([]*dist.Rank, nranks)
	trs := make([]*dist.TCPTransport, nranks)
	defer func() {
		for i := range ranks {
			if ranks[i] != nil {
				ranks[i].Close()
			}
			if trs[i] != nil {
				trs[i].Close()
			}
		}
	}()
	for i := range trs {
		tr, err := dist.NewTCPTransport(i, addrs)
		if err != nil {
			return 0, 0, err
		}
		trs[i], addrs[i] = tr, tr.Addr()
	}
	for i := range ranks {
		f := dist.NewFaultTransport(trs[i])
		f.SetSendDelay(pad)
		r, err := dist.NewRank(i, nranks, f, cfg, spec, maxInt(threads/nranks, 1))
		if err != nil {
			return 0, 0, err
		}
		ranks[i] = r
		r.SetOverlap(overlap)
		if err := r.Scatter(initial); err != nil {
			return 0, 0, err
		}
	}

	errs := make([]error, nranks)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = ranks[i].Run(w.Steps) }(i)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	for i, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", i, err)
		}
	}

	out := grid.NewGrid2D(w.N[0], w.N[1], initial.HX, initial.HY)
	out.Step = initial.Step + w.Steps
	for _, r := range ranks {
		if err := r.Territory(out); err != nil {
			return 0, 0, err
		}
	}
	return secs, checksum2D(out), nil
}

// pipelineCases measures the fused multi-stage pipeline executor
// against the barriered naive reference on the three stage shapes it
// supports: an SSP-RK2 heat stepper, a split high-order chain and a
// leapfrog stepper reading the previous time level. The first runs
// twice: at the fig-10 size of the requested scale, and at that of a
// quarter of it, whose two buffers outgrow the L2 cache at -scale 16
// (1500², 36 MB). Every round reseeds the input, and the fused
// pipeline evaluates exactly the stage tree the oracle does.
func pipelineCases(scale, threads int) ([]Case, error) {
	rk2 := &tessellate.Pipeline{Name: "rk2-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
		{Spec: tessellate.Heat2D, In: 0},
		{Spec: tessellate.Heat2D, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}}
	split := &tessellate.Pipeline{Name: "split-heat-box2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
		{Spec: tessellate.Heat2D, In: 0},
		{Spec: tessellate.Box2D9, In: 1},
	}}
	leapfrog := &tessellate.Pipeline{Name: "leapfrog-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
		{Spec: tessellate.Heat2D, In: 0},
		{A: 2, In: 1, B: -1, InB: tessellate.PrevState},
	}}
	w, big := fig10(scale), fig10(maxInt(scale/4, 1))
	halfBT := maxInt(w.TessBT/2, 1)
	var cases []Case
	for _, pc := range []struct {
		p  *tessellate.Pipeline
		w  Workload
		bt int
	}{
		{rk2, w, halfBT}, {split, w, halfBT}, {leapfrog, w, w.TessBT}, {rk2, big, maxInt(big.TessBT/2, 1)},
	} {
		if err := pc.p.Validate(); err != nil {
			return nil, err
		}
		c := Case{
			Workload: fmt.Sprintf("%s %d stages N=%v T=%d", pc.p.Name, pc.p.NumStages(), pc.w.N, pc.w.Steps),
			Updates:  float64(pc.w.Updates()),
		}
		for _, scheme := range []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation} {
			opt := tessellate.Options{Scheme: scheme, TimeTile: pc.bt}
			c.Variants = append(c.Variants, Variant{Name: scheme.String(), Run: func(round int) (float64, float64, error) {
				eng := tessellate.NewEngine(threads)
				defer eng.Close()
				slopes := pc.p.Slopes()
				g := tessellate.NewGrid2D(pc.w.N[0], pc.w.N[1], slopes[0], slopes[1])
				seedPipeline2D(g, pc.p.Name, round)
				start := time.Now()
				if err := eng.RunPipeline2D(g, pc.p, pc.w.Steps, nil, opt); err != nil {
					return 0, 0, err
				}
				return time.Since(start).Seconds(), checksum2D(g), nil
			}})
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// maskCases measures the masked tessellated executors against the
// masked naive reference on L-shaped and obstacle domains; the masked
// fast path updates exactly the active set. The L-shape also runs at
// the fig-10 size of a quarter of the requested scale, out of L2 at
// -scale 16. MLUP/s counts active-cell updates only.
func maskCases(scale, threads int) ([]Case, error) {
	var cases []Case
	for _, mc := range []struct {
		w    Workload
		mask string
	}{
		{fig10(scale), "lshape"}, {fig10(scale), "obstacle"}, {fig11a(scale), "obstacle"}, {fig10(maxInt(scale/4, 1)), "lshape"},
	} {
		w := mc.w
		m, err := tessellate.NamedMask(mc.mask, w.N)
		if err != nil {
			return nil, err
		}
		active := float64(m.ActiveCount())
		cases = append(cases, Case{
			Workload: fmt.Sprintf("%s %s %.0f%% active", w, mc.mask, 100*active/float64(w.Points())),
			Updates:  active * float64(w.Steps),
			Variants: []Variant{
				naiveVariant(w, threads, m),
				engineVariant("tessellation", w, tessellate.Options{Scheme: tessellate.Tessellation, TimeTile: w.TessBT}, threads, Placement{}, m),
			},
		})
	}
	return cases, nil
}
