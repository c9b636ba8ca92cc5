package autotune

import (
	"slices"
	"sync/atomic"
	"testing"

	"tessellate"
	"tessellate/internal/telemetry"
)

// spin burns a deterministic amount of CPU; unlike time.Sleep it is
// immune to timer-resolution rounding, so the injected slowdown is
// proportional to the work done. The engine's workers call it
// concurrently, so the sum stays local: the branch on it keeps the
// loop from being eliminated without a shared write.
func spin(n int) {
	x := 0.0
	for i := 0; i < n; i++ {
		x += float64(i & 7)
	}
	if x < 0 {
		panic("spin: negative sum")
	}
}

// flipAfter wraps a Retuner and flips the slow flag once the given
// boundary has been consulted — after the inner retuner snapshotted
// it, so the drift window is cleanly separated from the baseline
// window.
type flipAfter struct {
	inner     tessellate.Retuner
	atSteps   int
	slow      *atomic.Bool
	didFlip   bool
	boundarys []int
}

func (f *flipAfter) Phases() int { return f.inner.Phases() }

func (f *flipAfter) Retune(b tessellate.PhaseBoundary) (tessellate.Options, bool) {
	next, ok := f.inner.Retune(b)
	f.boundarys = append(f.boundarys, b.StepsDone)
	if !f.didFlip && b.StepsDone >= f.atSteps {
		f.didFlip = true
		f.slow.Store(true)
	}
	return next, ok
}

// Inject drift (a CPU-burdened kernel switched on mid-run) and assert
// the controller triggers exactly one re-tune — the detector, not the
// MaxRetunes cap, must limit it: after the re-tune the baseline is
// re-established under the burdened conditions, so the steady slow
// state is not drift.
func TestControllerDriftTriggersExactlyOneRetune(t *testing.T) {
	var slow atomic.Bool
	// RowOnly: the wrapped K2 must actually run — a retained block
	// kernel would be dispatched instead and the burden never fire.
	spec := *tessellate.Heat2D.RowOnly()
	spec.Name = "heat-2d-drifting"
	base := tessellate.Heat2D.K2
	spec.K2 = func(dst, src []float64, b, n, sy int) {
		if slow.Load() {
			spin(3000)
		}
		base(dst, src, b, n, sy)
	}

	const nx, ny, steps = 64, 64, 64
	dims := []int{nx, ny}
	eng := tessellate.NewEngine(2)
	defer eng.Close()

	ctrl := NewController(eng, &spec, dims, OnlineConfig{
		Interval:   2,
		Threshold:  1.0, // re-tune on a 2x mean shift; the burden is far larger
		MinSamples: 4,
		MaxRetunes: 5, // well above 1: the detector must stop on its own
		Trials:     4,
		MinSteps:   8,
	})
	defer telemetry.Disable()

	seed := tessellate.Options{TimeTile: 2, Block: []int{8, 8}}
	wrapper := &flipAfter{inner: ctrl, atSteps: 4, slow: &slow}

	g := tessellate.NewGrid2D(nx, ny, 1, 1)
	g.Fill(func(x, y int) float64 { return float64((3*x+5*y)%23) * 0.125 })
	ref := g.Clone()

	if err := eng.RunAdaptive2D(g, &spec, steps, seed, wrapper); err != nil {
		t.Fatal(err)
	}

	if got := ctrl.Retunes(); got != 1 {
		t.Fatalf("controller re-tuned %d times (events %+v, boundaries %v), want exactly 1",
			got, ctrl.Events(), wrapper.boundarys)
	}
	evs := ctrl.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Initial {
		t.Fatal("re-tune recorded as initial calibration")
	}
	if ev.WindowMean <= ev.BaselineMean {
		t.Fatalf("drift event window mean %g not above baseline %g", ev.WindowMean, ev.BaselineMean)
	}
	if sameOptions(ev.Before, ev.After) {
		t.Fatalf("re-tune kept the incumbent %+v despite the burden", ev.Before)
	}

	// Re-tiling mid-run must not change the numbers: bitwise identical
	// to the naive reference (the burdened kernel computes the same
	// values, just slower).
	slow.Store(false)
	naiveOpt := tessellate.Options{Scheme: tessellate.Naive}
	if err := eng.Run2D(ref, &spec, steps, naiveOpt); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if g.At(x, y) != ref.At(x, y) {
				t.Fatalf("adaptive run diverged from naive at (%d,%d): %v != %v", x, y, g.At(x, y), ref.At(x, y))
			}
		}
	}
}

// A controller with TuneOnStart must pull a run seeded with a
// pessimal tiling to (near) the offline Search optimum without
// restarting: the adopted tiling's measured rate must be within 15%
// of the offline best on this machine.
func TestAdaptiveConvergesFromPessimalSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive convergence test")
	}
	spec := tessellate.Heat2D
	dims := []int{256, 256}
	eng := tessellate.NewEngine(0)
	defer eng.Close()

	offline, err := Search(spec, dims, 0, Budget{MaxTrials: 10, MinSteps: 16})
	if err != nil {
		t.Fatal(err)
	}

	// Deliberately bad: minimum time tile, minimum legal blocks —
	// maximal synchronization and scheduling overhead per update.
	pessimal := tessellate.Options{TimeTile: 1, Block: []int{4, 4}}

	ctrl := NewController(eng, spec, dims, OnlineConfig{
		Interval:    2,
		Trials:      8,
		MinSteps:    16,
		TuneOnStart: true,
	})
	defer telemetry.Disable()

	g := tessellate.NewGrid2D(dims[0], dims[1], 1, 1)
	g.Fill(func(x, y int) float64 { return float64((x+y)%17) * 0.0625 })
	ref := g.Clone()
	const steps = 48
	if err := eng.RunAdaptive2D(g, spec, steps, pessimal, ctrl); err != nil {
		t.Fatal(err)
	}

	evs := ctrl.Events()
	if len(evs) == 0 || !evs[0].Initial {
		t.Fatalf("no calibration search ran: events %+v", evs)
	}
	final := evs[len(evs)-1].After
	if sameOptions(final, pessimal) {
		t.Fatalf("controller kept the pessimal seed %+v", pessimal)
	}

	// The adopted tiling must be competitive with the offline answer.
	// Measure both the same way Search measured its winner, in
	// interleaved pairs on this engine, so machine noise hits both sides
	// of each ratio alike; compare the median ratio, not one side's
	// maximum against the other's noisy search-time peak.
	const pairs = 7
	ratios := make([]float64, pairs)
	for i := range ratios {
		adopted, err := measure(eng, spec, dims, final, 16)
		if err != nil {
			t.Fatal(err)
		}
		best, err := measure(eng, spec, dims, offline.Best, 16)
		if err != nil {
			t.Fatal(err)
		}
		ratios[i] = adopted.MUpdates / best.MUpdates
	}
	slices.Sort(ratios)
	if med := ratios[pairs/2]; med < 0.85 {
		t.Fatalf("adaptive run converged to %+v at a median %.2f× the offline best %+v, below 0.85× (ratios %.2f)",
			final, med, offline.Best, ratios)
	}

	// And the converged run is still exact.
	naive := tessellate.Options{Scheme: tessellate.Naive}
	if err := eng.Run2D(ref, spec, steps, naive); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < dims[0]; x += 7 {
		for y := 0; y < dims[1]; y += 7 {
			if g.At(x, y) != ref.At(x, y) {
				t.Fatalf("adaptive run diverged from naive at (%d,%d)", x, y)
			}
		}
	}
}

// The controller must refuse to adopt an illegal incumbent and must
// not fire while the window is under-sampled.
func TestControllerGuards(t *testing.T) {
	spec := tessellate.Heat2D
	dims := []int{64, 64}
	if legalOptions(spec, dims, tessellate.Options{TimeTile: 4, Block: []int{4, 4}}) {
		t.Fatal("Block < 2*BT*slope accepted as legal")
	}
	if legalOptions(spec, dims, tessellate.Options{TimeTile: 2, Block: []int{128, 8}}) {
		t.Fatal("Block > domain accepted as legal")
	}
	if !legalOptions(spec, dims, tessellate.Options{TimeTile: 2, Block: []int{8, 8}}) {
		t.Fatal("legal options rejected")
	}

	eng := tessellate.NewEngine(1)
	defer eng.Close()
	ctrl := NewController(eng, spec, dims, OnlineConfig{MinSamples: 1 << 30})
	defer telemetry.Disable()
	// An under-sampled window must never re-tile.
	if _, ok := ctrl.Retune(tessellate.PhaseBoundary{StepsDone: 8, StepsTotal: 64,
		Options: tessellate.Options{TimeTile: 2, Block: []int{8, 8}}}); ok {
		t.Fatal("controller re-tiled on an empty window")
	}
}

// dispatchInjector wraps a Retuner and feeds synthetic samples into
// the pool dispatch-latency histogram before every consultation: a low
// steady latency up to slowAfter steps, a 10x latency beyond it. With
// a single-threaded engine the serial fast path records no natural
// dispatch samples, so the injected distribution is exactly what the
// controller sees.
type dispatchInjector struct {
	inner     tessellate.Retuner
	slowAfter int
}

func (d *dispatchInjector) Phases() int { return d.inner.Phases() }

func (d *dispatchInjector) Retune(b tessellate.PhaseBoundary) (tessellate.Options, bool) {
	lat := 50e-6
	if b.StepsDone >= d.slowAfter {
		lat = 500e-6
	}
	for i := 0; i < 32; i++ {
		telemetry.PoolDispatchSeconds.Observe(lat)
	}
	return d.inner.Retune(b)
}

// Rising dispatch latency alone — stage durations stable — must trip
// the detector exactly once, with the event attributed to the
// dispatch trigger: after the re-tune the dispatch baseline is
// re-established under the new latency regime, so the steady slow
// state is not drift.
func TestControllerDispatchDriftTriggersExactlyOneRetune(t *testing.T) {
	const nx, ny, steps = 64, 64, 40
	dims := []int{nx, ny}
	eng := tessellate.NewEngine(1)
	defer eng.Close()

	ctrl := NewController(eng, tessellate.Heat2D, dims, OnlineConfig{
		Interval:          2,
		Threshold:         100, // stage trigger effectively off
		DispatchThreshold: 1.0, // re-tune on a 2x dispatch-latency shift
		MinSamples:        4,
		MaxRetunes:        5, // well above 1: the detector must stop on its own
		Trials:            4,
		MinSteps:          8,
	})
	defer telemetry.Disable()

	seed := tessellate.Options{TimeTile: 2, Block: []int{8, 8}}
	wrapper := &dispatchInjector{inner: ctrl, slowAfter: 8}

	g := tessellate.NewGrid2D(nx, ny, 1, 1)
	g.Fill(func(x, y int) float64 { return float64((3*x+5*y)%23) * 0.125 })
	ref := g.Clone()

	if err := eng.RunAdaptive2D(g, tessellate.Heat2D, steps, seed, wrapper); err != nil {
		t.Fatal(err)
	}

	if got := ctrl.Retunes(); got != 1 {
		t.Fatalf("controller re-tuned %d times (events %+v), want exactly 1", got, ctrl.Events())
	}
	evs := ctrl.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Cause != "dispatch" {
		t.Fatalf("re-tune cause %q, want \"dispatch\" (event %+v)", ev.Cause, ev)
	}
	if ev.DispatchMean <= ev.DispatchBaseline {
		t.Fatalf("dispatch window mean %g not above baseline %g", ev.DispatchMean, ev.DispatchBaseline)
	}
	if ev.DispatchBaseline <= 0 {
		t.Fatal("dispatch baseline was never established")
	}

	// The injected latency is synthetic; the run itself must be exact.
	if err := eng.Run2D(ref, tessellate.Heat2D, steps, tessellate.Options{Scheme: tessellate.Naive}); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if g.At(x, y) != ref.At(x, y) {
				t.Fatalf("adaptive run diverged from naive at (%d,%d)", x, y)
			}
		}
	}
}
