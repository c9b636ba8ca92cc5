package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"tessellate"
	"tessellate/internal/cachesim"
	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Measurement is one (workload, scheme, threads) timing sample.
type Measurement struct {
	Workload string
	Kernel   string
	Scheme   string
	Threads  int
	Seconds  float64
	// MUpdates is millions of point updates per second (the paper's
	// figures report GStencil/s-style throughput).
	MUpdates float64
	// GFlops derives from the kernel's per-point flop count.
	GFlops float64
	// Checksum is a deterministic digest of the output grid, used by
	// the harness's self-check to confirm schemes agree.
	Checksum float64
}

// Placement selects the scheduling/placement knobs a measurement runs
// with (see tessellate.EngineOptions). The zero value is the classic
// dynamic, unpinned, driver-allocated configuration.
type Placement struct {
	// Sticky enables the static block→worker mapping.
	Sticky bool
	// Pin pins workers to CPU cores (degrades to a recorded no-op
	// where unavailable).
	Pin bool
	// FirstTouch allocates grids under the worker mapping so pages
	// land on the touching worker's memory node.
	FirstTouch bool
}

// String names the placement for reports ("dynamic" for the zero
// value).
func (p Placement) String() string {
	var parts []string
	if p.Sticky {
		parts = append(parts, "sticky")
	}
	if p.Pin {
		parts = append(parts, "pin")
	}
	if p.FirstTouch {
		parts = append(parts, "firsttouch")
	}
	if len(parts) == 0 {
		return "dynamic"
	}
	return strings.Join(parts, "+")
}

// defaultPlacement is what Run (the placement-agnostic entry point all
// sweep modes share) applies; stencilbench's -pin/-sticky flags set it
// process-wide via SetPlacement.
var defaultPlacement Placement

// SetPlacement sets the placement Run applies. Not safe to call
// concurrently with measurements.
func SetPlacement(p Placement) { defaultPlacement = p }

// defaultCoarsening is the per-stage coarsening vector tessellation
// measurements run with; stencilbench's -coarsen-per-stage flag sets
// it process-wide via SetCoarsening.
var defaultCoarsening []int

// SetCoarsening sets the per-stage coarsening vector applied to
// tessellation-scheme measurements (see Options.CoarsenPerStage). nil
// or empty restores the uncoarsened default. Not safe to call
// concurrently with measurements.
func SetCoarsening(perStage []int) {
	defaultCoarsening = append([]int(nil), perStage...)
}

// Run executes workload w with the given scheme and thread count and
// returns the measurement, under the process-wide default placement.
// Grids are freshly allocated and seeded deterministically so
// measurements are comparable across schemes.
func Run(w Workload, scheme tessellate.Scheme, threads int) (Measurement, error) {
	return RunPlaced(w, scheme, threads, defaultPlacement)
}

// RunPlaced is Run with explicit placement knobs.
func RunPlaced(w Workload, scheme tessellate.Scheme, threads int, p Placement) (Measurement, error) {
	spec, err := tessellate.StencilByName(w.Kernel)
	if err != nil {
		return Measurement{}, err
	}
	opt := w.Options(scheme)
	if scheme == tessellate.Tessellation && len(defaultCoarsening) > 0 {
		opt.CoarsenPerStage = append([]int(nil), defaultCoarsening...)
	}
	secs, sum, err := runOnce(w, opt, threads, p, nil)
	if err != nil {
		return Measurement{}, err
	}
	updates := float64(w.Updates())
	m := Measurement{
		Workload: w.String(),
		Kernel:   w.Kernel,
		Scheme:   scheme.String(),
		Threads:  threads,
		Seconds:  secs,
		MUpdates: updates / secs / 1e6,
		GFlops:   updates * float64(spec.Flops) / secs / 1e9,
		Checksum: sum,
	}
	m.export(time.Now().Add(-time.Duration(secs * 1e9)))
	return m, nil
}

// runOnce runs w under opt on a fresh engine with placement p, over
// the whole domain or, when m is non-nil, the active cells of m (2D
// and 3D only). The grid is freshly allocated and seeded per kernel,
// so every scheme sees identical input; only the run itself is timed.
// It returns the run's seconds and the output's checksum.
func runOnce(w Workload, opt tessellate.Options, threads int, p Placement, m *tessellate.Mask) (float64, float64, error) {
	spec, err := tessellate.StencilByName(w.Kernel)
	if err != nil {
		return 0, 0, err
	}
	eng := tessellate.NewEngineOpts(tessellate.EngineOptions{
		Threads: threads, Pin: p.Pin, Sticky: p.Sticky,
	})
	defer eng.Close()

	var run func() error
	var sum func() float64
	switch {
	case len(w.N) == 1 && m == nil:
		var g *tessellate.Grid1D
		if p.FirstTouch {
			g = eng.AllocGrid1D(w.N[0], spec.MaxSlope())
		} else {
			g = tessellate.NewGrid1D(w.N[0], spec.MaxSlope())
		}
		seed1D(g, w.Kernel)
		run = func() error { return eng.Run1D(g, spec, w.Steps, opt) }
		sum = func() float64 { return checksum1D(g) }
	case len(w.N) == 2:
		var g *tessellate.Grid2D
		if p.FirstTouch {
			g = eng.AllocGrid2D(w.N[0], w.N[1], spec.Slopes[0], spec.Slopes[1])
		} else {
			g = tessellate.NewGrid2D(w.N[0], w.N[1], spec.Slopes[0], spec.Slopes[1])
		}
		seed2D(g, w.Kernel)
		run = func() error { return eng.Run2D(g, spec, w.Steps, opt) }
		if m != nil {
			run = func() error { return eng.RunMasked2D(g, spec, w.Steps, m, opt) }
		}
		sum = func() float64 { return checksum2D(g) }
	case len(w.N) == 3:
		var g *tessellate.Grid3D
		if p.FirstTouch {
			g = eng.AllocGrid3D(w.N[0], w.N[1], w.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
		} else {
			g = tessellate.NewGrid3D(w.N[0], w.N[1], w.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
		}
		seed3D(g, w.Kernel)
		run = func() error { return eng.Run3D(g, spec, w.Steps, opt) }
		if m != nil {
			run = func() error { return eng.RunMasked3D(g, spec, w.Steps, m, opt) }
		}
		sum = func() float64 { return checksum3D(g) }
	default:
		return 0, 0, fmt.Errorf("bench: unsupported rank %d (masked: %v)", len(w.N), m != nil)
	}

	start := time.Now()
	if err := run(); err != nil {
		return 0, 0, fmt.Errorf("bench: %s/%v: %w", w, opt.Scheme, err)
	}
	return time.Since(start).Seconds(), sum(), nil
}

// export publishes the measurement to the telemetry registry and
// tracer, so long stencilbench runs are scrapeable in flight.
func (m *Measurement) export(start time.Time) {
	if !telemetry.Enabled() {
		return
	}
	th := strconv.Itoa(m.Threads)
	telemetry.BenchSeconds.Gauge(m.Workload, m.Scheme, th).Set(m.Seconds)
	telemetry.BenchMUpdates.Gauge(m.Workload, m.Scheme, th).Set(m.MUpdates)
	telemetry.BenchGFlops.Gauge(m.Workload, m.Scheme, th).Set(m.GFlops)
	telemetry.BenchMeasurements.Inc()
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name: m.Workload + "/" + m.Scheme, Cat: "bench",
		TID: m.Threads, Phase: -1, Stage: -1,
	}, start)
}

// ThreadSweep measures every scheme at every thread count, the shape of
// the paper's scaling figures.
func ThreadSweep(w Workload, schemes []tessellate.Scheme, threads []int) ([]Measurement, error) {
	var out []Measurement
	for _, sc := range schemes {
		for _, th := range threads {
			m, err := Run(w, sc, th)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Traffic measures the DRAM transfer volume of a scheme on workload w
// by replaying its exact access schedule through a cache model of the
// given capacity (Fig. 12's measurement, with the simulator standing in
// for the uncore counters). The replay is single-threaded.
type Traffic struct {
	Scheme        string
	Bytes         int64
	BytesPerPoint float64 // per point per time step
	HitRate       float64
}

// MeasureTraffic replays workload w (3D kernels only, as in Fig. 12)
// under the given scheme through a cache of cacheBytes capacity.
func MeasureTraffic(w Workload, scheme tessellate.Scheme, cacheBytes int) (Traffic, error) {
	if len(w.N) != 3 {
		return Traffic{}, fmt.Errorf("bench: traffic replay supports 3D workloads, got rank %d", len(w.N))
	}
	spec, err := tessellate.StencilByName(w.Kernel)
	if err != nil {
		return Traffic{}, err
	}
	cache, err := cachesim.NewCache(cacheBytes, 64, 16)
	if err != nil {
		return Traffic{}, err
	}
	g := tessellate.NewGrid3D(w.N[0], w.N[1], w.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
	traced := cachesim.NewTracingSpec(spec, cache, g.Buf[0], g.Buf[1])
	eng := tessellate.NewEngine(1)
	defer eng.Close()
	if err := eng.Run3D(g, traced, w.Steps, w.Options(scheme)); err != nil {
		return Traffic{}, err
	}
	cache.FlushWritebacks()
	return Traffic{
		Scheme:        scheme.String(),
		Bytes:         cache.TrafficBytes(),
		BytesPerPoint: float64(cache.TrafficBytes()) / float64(w.Updates()),
		HitRate:       float64(cache.Hits) / float64(cache.Accesses),
	}, nil
}

// ValidateWorkload checks that the tessellation schedule for workload w
// passes the full schedule validator (Theorems 3.5/3.6) at a reduced
// size, as a harness self-test.
func ValidateWorkload(w Workload) error {
	spec, err := tessellate.StencilByName(w.Kernel)
	if err != nil {
		return err
	}
	s := w.Scaled(64)
	cfg := core.Config{N: s.N, Slopes: spec.Slopes, BT: s.TessBT, Big: s.TessBig, Merge: true}
	return core.ValidateSchedule(&cfg, minInt(s.Steps, 3*s.TessBT))
}

// Seeding: deterministic per kernel so all schemes see identical input.

func seed1D(g *grid.Grid1D, kernel string) {
	rng := rand.New(rand.NewSource(int64(len(kernel))))
	g.Fill(func(x int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}

func seed2D(g *grid.Grid2D, kernel string) {
	rng := rand.New(rand.NewSource(int64(len(kernel))))
	if kernel == stencil.Life.Name {
		g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
		g.SetBoundary(0)
		return
	}
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}

// seedPipeline2D seeds a pipeline grid deterministically per pipeline
// name and round, like seed2D does per kernel.
func seedPipeline2D(g *grid.Grid2D, name string, round int) {
	rng := rand.New(rand.NewSource(int64(len(name))<<8 + int64(round)))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}

func seed3D(g *grid.Grid3D, kernel string) {
	rng := rand.New(rand.NewSource(int64(len(kernel))))
	g.Fill(func(x, y, z int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}

// Checksums: order-independent digests (sums are over fixed iteration
// order, so they are deterministic and comparable across schemes).

func checksum1D(g *grid.Grid1D) float64 {
	s := 0.0
	for x := 0; x < g.N; x++ {
		s += g.At(x)
	}
	return s
}

func checksum2D(g *grid.Grid2D) float64 {
	s := 0.0
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			s += g.At(x, y)
		}
	}
	return s
}

func checksum3D(g *grid.Grid3D) float64 {
	s := 0.0
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			for z := 0; z < g.NZ; z++ {
				s += g.At(x, y, z)
			}
		}
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
