// Online, telemetry-driven re-tuning: the closed loop between
// internal/telemetry's live measurements and this package's candidate
// search. The offline Search answers "what tiling is best right now,
// on an idle machine"; the Controller answers the question the paper
// leaves as ongoing work for long-running engines — "is the tiling I
// chose still best, and if not, what should replace it" — by watching
// the tess_stage_duration_seconds and tess_pool_dispatch_seconds
// histograms between phases and re-running a narrowed candidate
// search when the observed distribution drifts from its tuning-time
// baseline.

package autotune

import (
	"math"
	"sync"

	"tessellate"
	"tessellate/internal/telemetry"
)

// OnlineConfig parametrises the adaptive controller. The zero value
// selects usable defaults for every field.
type OnlineConfig struct {
	// Interval is the number of phases (of TimeTile steps each)
	// between drift checks. Default 4.
	Interval int
	// Threshold is the relative shift of the windowed mean region
	// duration versus the tuning-time baseline that counts as drift:
	// |mean - base| > Threshold*base re-tunes. Default 0.5.
	Threshold float64
	// MinSamples is the minimum number of parallel regions a window
	// must hold before its mean is trusted. Default 8.
	MinSamples int
	// MaxRetunes caps the number of drift-triggered re-tunes per run
	// (the initial calibration search is not counted). Default 3.
	MaxRetunes int
	// Trials caps the narrowed candidate re-search run at each
	// re-tune; it is deliberately smaller than an offline
	// Budget.MaxTrials because the main run is paused while it
	// measures. Default 8.
	Trials int
	// MinSteps is the minimum timed steps per re-search trial.
	// Default 16.
	MinSteps int
	// TuneOnStart makes the controller run its first candidate search
	// at the first phase boundary, replacing whatever tiling the run
	// was seeded with. Set it when the seed options are untuned;
	// leave it false when the run starts from an offline Search
	// result.
	TuneOnStart bool
	// DispatchThreshold is the relative shift of the windowed mean
	// pool dispatch latency (tess_pool_dispatch_seconds) versus its
	// tuning-time baseline that counts as drift on its own, even when
	// stage durations look stable — rising dispatch latency signals
	// scheduling overhead (oversubscription, interference) that
	// re-tiling to a coarser grain can absorb. 0 disables the
	// dispatch-latency trigger (the default).
	DispatchThreshold float64
}

func (c *OnlineConfig) defaults() {
	if c.Interval < 1 {
		c.Interval = 4
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.MinSamples < 1 {
		c.MinSamples = 8
	}
	if c.MaxRetunes < 1 {
		c.MaxRetunes = 3
	}
	if c.Trials < 1 {
		c.Trials = 8
	}
	if c.MinSteps < 1 {
		c.MinSteps = 16
	}
}

// Event records one re-tune decision taken by the controller.
type Event struct {
	// StepsDone is the phase boundary (in completed time steps) at
	// which the re-tune happened.
	StepsDone int
	// Before and After are the tilings on either side of the swap;
	// they are equal when the search found nothing better than the
	// incumbent.
	Before, After tessellate.Options
	// WindowMean and BaselineMean are the mean region durations (in
	// seconds) of the drifted window and of the tuning-time baseline.
	// Zero for the initial calibration search, which is not
	// drift-triggered.
	WindowMean, BaselineMean float64
	// DispatchMean is the mean pool dispatch latency of the window;
	// DispatchBaseline is the latency baseline it was compared against
	// (zero until the dispatch baseline is established).
	DispatchMean     float64
	DispatchBaseline float64
	// Cause names what tripped the detector: "stage", "dispatch" or
	// "stage+dispatch"; empty for an initial calibration search.
	Cause string
	// Rate is the measured throughput of the adopted tiling, in
	// millions of point updates per second.
	Rate float64
	// Initial marks the calibration search of a TuneOnStart
	// controller.
	Initial bool
}

// Controller is a tessellate.Retuner that closes the loop between the
// live telemetry histograms and the candidate search. Between phases
// it computes the windowed delta of the stage-duration distribution;
// when the window's mean region duration shifts beyond the configured
// threshold relative to the baseline established after the last
// (re-)tune, it re-runs a narrowed candidate search on throwaway
// grids — the worker pool is idle at a phase boundary — and swaps the
// winner in for the remaining phases.
//
// NewController enables telemetry: the controller is blind without
// it. All methods are safe for concurrent use, though Retune is only
// ever called from the run's goroutine.
type Controller struct {
	spec *tessellate.Stencil
	dims []int
	eng  *tessellate.Engine
	cfg  OnlineConfig

	mu          sync.Mutex
	prevStage   telemetry.HistSnapshot
	prevDia     telemetry.HistSnapshot
	prevDisp    telemetry.HistSnapshot
	baseMean    float64
	baseSet     bool
	baseDisp    float64
	baseDispSet bool
	calibrated  bool
	retunes     int
	events      []Event
}

// NewController returns a controller for adaptive runs of spec on a
// grid with the given extents, using eng for re-search measurements
// (normally the same engine that executes the adaptive run). It
// enables telemetry as a side effect.
func NewController(eng *tessellate.Engine, spec *tessellate.Stencil, dims []int, cfg OnlineConfig) *Controller {
	cfg.defaults()
	telemetry.Enable()
	c := &Controller{spec: spec, dims: dims, eng: eng, cfg: cfg}
	c.refreshSnapshots()
	return c
}

// Phases implements tessellate.Retuner.
func (c *Controller) Phases() int { return c.cfg.Interval }

// Events returns the re-tune history, oldest first.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Retunes returns the number of drift-triggered re-tunes so far
// (excluding a TuneOnStart calibration search).
func (c *Controller) Retunes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if !e.Initial {
			n++
		}
	}
	return n
}

// Retune implements tessellate.Retuner. It is called at a full
// synchronization point, so the histogram snapshots it takes are
// exact (no in-flight observers).
func (c *Controller) Retune(b tessellate.PhaseBoundary) (tessellate.Options, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.cfg.TuneOnStart && !c.calibrated {
		c.calibrated = true
		return c.research(b, Event{Initial: true})
	}

	stage := telemetry.StageDuration.Histogram("stage").Snapshot()
	dia := telemetry.StageDuration.Histogram("diamond").Snapshot()
	disp := telemetry.PoolDispatchSeconds.Snapshot()
	ws := stage.Delta(c.prevStage)
	wd := dia.Delta(c.prevDia)
	dispWin := disp.Delta(c.prevDisp)
	c.prevStage, c.prevDia, c.prevDisp = stage, dia, disp

	count := ws.Count + wd.Count
	if count < uint64(c.cfg.MinSamples) {
		return tessellate.Options{}, false
	}
	mean := (ws.Sum + wd.Sum) / float64(count)
	dispMean := dispWin.Mean()

	if !c.baseSet {
		// First trusted window under the current tiling: this is the
		// baseline every later window is compared against.
		c.baseMean = mean
		c.baseSet = true
		c.rebaseDispatch(dispWin)
		return tessellate.Options{}, false
	}
	if c.baseMean <= 0 {
		c.baseMean = mean
		c.rebaseDispatch(dispWin)
		return tessellate.Options{}, false
	}
	if !c.baseDispSet {
		// The dispatch baseline may lag the stage baseline: small runs
		// (or the serial fast path) record few dispatch samples, so it
		// is established on the first window with enough of them.
		c.rebaseDispatch(dispWin)
	}
	stageDrift := math.Abs(mean-c.baseMean) > c.cfg.Threshold*c.baseMean
	dispDrift := c.cfg.DispatchThreshold > 0 && c.baseDispSet && c.baseDisp > 0 &&
		dispWin.Count >= uint64(c.cfg.MinSamples) &&
		math.Abs(dispMean-c.baseDisp) > c.cfg.DispatchThreshold*c.baseDisp
	if !stageDrift && !dispDrift {
		return tessellate.Options{}, false
	}
	if c.retunes >= c.cfg.MaxRetunes {
		return tessellate.Options{}, false
	}
	cause := "stage"
	switch {
	case stageDrift && dispDrift:
		cause = "stage+dispatch"
	case dispDrift:
		cause = "dispatch"
	}
	c.retunes++
	return c.research(b, Event{
		WindowMean:       mean,
		BaselineMean:     c.baseMean,
		DispatchMean:     dispMean,
		DispatchBaseline: c.baseDisp,
		Cause:            cause,
	})
}

// rebaseDispatch establishes the dispatch-latency baseline from the
// given window when it holds enough samples to be trusted.
func (c *Controller) rebaseDispatch(win telemetry.HistSnapshot) {
	if win.Count >= uint64(c.cfg.MinSamples) {
		c.baseDisp = win.Mean()
		c.baseDispSet = true
	}
}

// research runs the narrowed candidate search under current machine
// conditions and swaps in the winner. It records ev (pre-filled with
// the drift context) in the history, refreshes the snapshots so the
// trial runs' samples do not pollute the next window, and resets the
// baseline so it is re-established under the adopted tiling.
func (c *Controller) research(b tessellate.PhaseBoundary, ev Event) (tessellate.Options, bool) {
	cur := b.Options
	cands := candidates(c.spec, c.dims, c.cfg.Trials)
	if !containsOptions(cands, cur) && legalOptions(c.spec, c.dims, cur) {
		cands = append(cands, cur)
	}

	best := cur
	bestRate := 0.0
	ok := true
	for _, o := range cands {
		tr, err := measure(c.eng, c.spec, c.dims, o, c.cfg.MinSteps)
		if err != nil {
			ok = false
			break
		}
		if tr.MUpdates > bestRate {
			best, bestRate = tr.Options, tr.MUpdates
		}
	}
	if ok {
		// Mirror offline Search's refinement: stretch the winner's
		// unit-stride dimension.
		last := len(c.dims) - 1
		for _, f := range []int{2, 4} {
			o := best
			o.Block = append([]int(nil), o.Block...)
			nb := o.Block[last] * f
			if nb > c.dims[last] {
				continue
			}
			o.Block[last] = nb
			tr, err := measure(c.eng, c.spec, c.dims, o, c.cfg.MinSteps)
			if err != nil {
				break
			}
			if tr.MUpdates > bestRate {
				best, bestRate = tr.Options, tr.MUpdates
			}
		}
	}

	c.refreshSnapshots()
	c.baseSet = false
	c.baseDispSet = false

	ev.StepsDone = b.StepsDone
	ev.Before = cur
	ev.After = best
	ev.Rate = bestRate
	c.events = append(c.events, ev)

	if !ok || sameOptions(best, cur) {
		return tessellate.Options{}, false
	}
	return best, true
}

// refreshSnapshots re-bases the window deltas on the current
// cumulative state, discarding everything observed so far (e.g. the
// re-search's own trial runs).
func (c *Controller) refreshSnapshots() {
	c.prevStage = telemetry.StageDuration.Histogram("stage").Snapshot()
	c.prevDia = telemetry.StageDuration.Histogram("diamond").Snapshot()
	c.prevDisp = telemetry.PoolDispatchSeconds.Snapshot()
}

// legalOptions reports whether opt is a complete, legal tessellation
// tiling for the given spec and extents.
func legalOptions(spec *tessellate.Stencil, dims []int, opt tessellate.Options) bool {
	if opt.TimeTile < 1 || len(opt.Block) != len(dims) {
		return false
	}
	for k := range dims {
		if opt.Block[k] < 2*opt.TimeTile*spec.Slopes[k] || opt.Block[k] > dims[k] {
			return false
		}
	}
	return true
}

func containsOptions(list []tessellate.Options, opt tessellate.Options) bool {
	for _, o := range list {
		if sameOptions(o, opt) {
			return true
		}
	}
	return false
}

func sameOptions(a, b tessellate.Options) bool {
	if a.TimeTile != b.TimeTile || a.NoMerge != b.NoMerge || len(a.Block) != len(b.Block) {
		return false
	}
	for k := range a.Block {
		if a.Block[k] != b.Block[k] {
			return false
		}
	}
	return sameCoarsening(a.CoarsenPerStage, b.CoarsenPerStage)
}

// sameCoarsening compares coarsening vectors semantically: absent
// entries default to factor 1, so nil, [1] and [1 1] all coincide.
func sameCoarsening(a, b []int) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	at := func(v []int, i int) int {
		if len(v) == 0 {
			return 1
		}
		if i >= len(v) {
			i = len(v) - 1
		}
		if v[i] < 1 {
			return 1
		}
		return v[i]
	}
	for i := 0; i < n; i++ {
		if at(a, i) != at(b, i) {
			return false
		}
	}
	return true
}
