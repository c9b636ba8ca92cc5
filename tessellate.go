// Package tessellate is a Go implementation of "Tessellating Stencils"
// (Yuan, Zhang, Guo, Huang — SC'17): a two-level tessellation tiling
// scheme for Jacobi stencil computations with concurrent start, no
// redundant computation, and d synchronizations per time tile for a
// d-dimensional stencil.
//
// The package also ships the baselines the paper evaluates against —
// naive and space-tiled sweeps, time-skewed wavefront tiling,
// concurrent-start diamond tiling (Pluto), cache-oblivious trapezoidal
// decomposition (Pochoir) and a multicore wavefront diamond scheme
// (Girih/MWD) — all resolving one box kernel per run on the same kernel
// tier, so every scheme produces bitwise-identical results on the same
// input.
//
// # Quick start
//
//	g := tessellate.NewGrid2D(512, 512, 1, 1)
//	g.Fill(func(x, y int) float64 { return initial(x, y) })
//	eng := tessellate.NewEngine(0) // 0 = GOMAXPROCS workers
//	defer eng.Close()
//	err := eng.Run2D(g, tessellate.Heat2D, 100, tessellate.Options{})
//
// Options{} selects the tessellation scheme with auto-tuned block
// sizes; see Options for the full parameter space.
package tessellate

import (
	"fmt"
	"io"

	"tessellate/internal/core"
	"tessellate/internal/d35"
	"tessellate/internal/diamond"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/oblivious"
	"tessellate/internal/overlap"
	"tessellate/internal/par"
	"tessellate/internal/skew"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Grid types. A grid owns two time-parity buffers plus a constant halo
// (the non-periodic boundary of the paper's evaluation).
type (
	// Grid1D is a double-buffered 1D grid; see NewGrid1D.
	Grid1D = grid.Grid1D
	// Grid2D is a double-buffered 2D grid; see NewGrid2D.
	Grid2D = grid.Grid2D
	// Grid3D is a double-buffered 3D grid; see NewGrid3D.
	Grid3D = grid.Grid3D
	// NDGrid is a double-buffered grid of any dimension, served by the
	// formula-driven executor.
	NDGrid = grid.NDGrid
	// Stencil describes one of the built-in benchmark kernels.
	Stencil = stencil.Spec
	// GenericStencil is a stencil of arbitrary dimension/order/shape.
	GenericStencil = stencil.Generic
	// Pipeline chains atomic stages (stencil applications and pointwise
	// blends) into one logical time step — RK steppers and split
	// high-order operators; see Engine.RunPipeline2D.
	Pipeline = stencil.Pipeline
	// Stage is one atomic step of a Pipeline.
	Stage = stencil.Stage
	// Mask marks each grid cell active or frozen for irregular-domain
	// runs; see Engine.RunMasked2D.
	Mask = grid.Mask
)

// PrevState selects the state grid's previous time level u^{t-1} as a
// pipeline blend input (final-stage blends only).
const PrevState = stencil.PrevState

// Grid constructors (re-exported).
var (
	NewGrid1D = grid.NewGrid1D
	NewGrid2D = grid.NewGrid2D
	NewGrid3D = grid.NewGrid3D
	NewNDGrid = grid.NewNDGrid
	NewStar   = stencil.NewStar
	NewBox    = stencil.NewBox
	// NewVarCoef2D/3D build heat kernels with per-cell conductivity;
	// the coefficient slice must have the grid buffer's padded layout.
	NewVarCoef2D = stencil.NewVarCoef2D
	NewVarCoef3D = stencil.NewVarCoef3D
	// NewMask builds an all-active mask of the given extents; NamedMask
	// builds one of the built-in shapes ("lshape", "obstacle").
	NewMask   = grid.NewMask
	NamedMask = grid.NamedMask
)

// The seven benchmark stencils of the paper's Table 4.
var (
	Heat1D  = stencil.Heat1D
	P1D5    = stencil.P1D5
	Heat2D  = stencil.Heat2D
	Box2D9  = stencil.Box2D9
	Life    = stencil.Life
	Heat3D  = stencil.Heat3D
	Box3D27 = stencil.Box3D27
)

// StencilByName resolves one of the benchmark kernels by its Table 4
// name ("heat-2d", "3d27p", ...).
func StencilByName(name string) (*Stencil, error) { return stencil.ByName(name) }

// Scheme selects the tiling algorithm.
type Scheme int

const (
	// Tessellation is the paper's scheme (the default).
	Tessellation Scheme = iota
	// Naive is the untiled per-time-step sweep.
	Naive
	// SpaceTiled blocks each time step spatially (no temporal reuse).
	SpaceTiled
	// Skewed is classic time-skewed parallelepiped tiling with a
	// pipelined wavefront.
	Skewed
	// Diamond is concurrent-start diamond tiling (Pluto).
	Diamond
	// Oblivious is cache-oblivious trapezoidal decomposition (Pochoir).
	Oblivious
	// MWD is the multicore wavefront diamond scheme (Girih).
	MWD
	// Overlapped is ghost-zone (overlapped) tiling: maximal concurrency
	// bought with redundant computation (2D only).
	Overlapped
	// D35 is 3.5D blocking (Nguyen et al.): 2.5D spatial blocking with
	// an x-streaming temporal pipeline (3D only).
	D35
)

var schemeNames = map[Scheme]string{
	Tessellation: "tessellation",
	Naive:        "naive",
	SpaceTiled:   "space-tiled",
	Skewed:       "skewed",
	Diamond:      "diamond",
	Oblivious:    "oblivious",
	MWD:          "mwd",
	Overlapped:   "overlapped",
	D35:          "3.5d",
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// SchemeByName resolves a scheme name as printed by String.
func SchemeByName(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("tessellate: unknown scheme %q", name)
}

// Schemes lists all available schemes.
func Schemes() []Scheme {
	return []Scheme{Tessellation, Naive, SpaceTiled, Skewed, Diamond, Oblivious, MWD, Overlapped, D35}
}

// Options parametrises a run. The zero value selects the tessellation
// scheme with block sizes derived from the grid and stencil.
type Options struct {
	// Scheme selects the tiling algorithm.
	Scheme Scheme
	// TimeTile is the temporal tile height (the paper's b / bt). 0
	// picks a default, for the tessellation halved until a few blocks
	// fit per dimension from 16/slope for a 2D run with one stencil
	// stage and from 16 otherwise.
	TimeTile int
	// Block is the per-dimension spatial block size. Its meaning
	// follows the scheme: the tessellation coarse size Big, the skewed
	// tile extent, the diamond waist (first entry), the space tile, or
	// the oblivious base-case cutoffs. Empty picks defaults; for the
	// tessellation (core.NewConfig), each clamped to the domain:
	//   - a 2D run with one stencil stage (a plain stencil, or one
	//     stencil plus blends) gets L1-sized tiles,
	//     max(2·TimeTile·slope, 32) × max(2·TimeTile·slope, 64);
	//   - any other run gets the §4.2 shape at the resolved TimeTile,
	//     8·TimeTile·slope with the unit-stride dimension at
	//     16·TimeTile·slope.
	Block []int
	// NoMerge disables the tessellation's B_d+B_0 merging (§4.3);
	// useful for the ablation study.
	NoMerge bool
	// Periodic selects wrap-around boundaries (paper §3.6). Only
	// Engine.RunND accepts it, when each domain extent is a multiple
	// of the block lattice period; Run1D/2D/3D, RunAdaptive*,
	// RunPipeline* and RunMasked* return an error under every scheme.
	Periodic bool
	// CoarsenPerStage sets the tessellation's §4.2 dispatch coarsening
	// factor per stage: entry i applies to stage-i regions (i = the
	// number of glued dimensions; merged B_d+B_0 diamond regions use
	// entry 0). A factor of c groups c adjacent blocks of a parallel
	// region into one scheduled work item — results are bitwise
	// identical for any legal vector, only the scheduling grain
	// changes. A single entry applies to every stage; entries must lie
	// in [1, MaxCoarsenFactor]. Empty means no coarsening. Only the
	// tessellation scheme consults it.
	CoarsenPerStage []int
}

// MaxCoarsenFactor is the largest legal per-stage coarsening factor
// (core caps dispatch groups at 64 blocks).
const MaxCoarsenFactor = core.MaxCoarsen

// Engine owns a worker pool and executes runs. Create one per desired
// thread count and reuse it; Close releases the workers.
type Engine struct {
	pool *par.Pool
}

// EngineOptions selects the engine's scheduling and placement
// behaviour; the zero value reproduces NewEngine (dynamic scheduling,
// no pinning).
type EngineOptions struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Pin pins each worker to its own CPU core (linux; degrades to a
	// recorded no-op elsewhere or when the kernel refuses — see
	// PinError).
	Pin bool
	// Sticky enables the static block→worker mapping for stage loops:
	// the blocks a worker ran last stage are the blocks it runs next
	// stage, keeping their data in that core's cache.
	Sticky bool
}

// NewEngine creates an engine with the given number of workers
// (0 = GOMAXPROCS).
func NewEngine(threads int) *Engine {
	return NewEngineOpts(EngineOptions{Threads: threads})
}

// NewEngineOpts creates an engine with explicit scheduling and
// placement options. Construction never fails: unavailable pinning is
// recorded in PinError, not fatal.
func NewEngineOpts(opts EngineOptions) *Engine {
	return &Engine{pool: par.NewPoolOpts(opts.Threads, par.PoolOptions{
		Pin:    opts.Pin,
		Sticky: opts.Sticky,
	})}
}

// Threads reports the engine's worker count.
func (e *Engine) Threads() int { return e.pool.Workers() }

// Close releases the engine's workers.
func (e *Engine) Close() { e.pool.Close() }

// SetSticky toggles sticky scheduling for subsequent runs. Must not be
// called while a run is in flight.
func (e *Engine) SetSticky(on bool) { e.pool.SetSticky(on) }

// StickyEnabled reports whether stage loops use the sticky mapping.
func (e *Engine) StickyEnabled() bool { return e.pool.StickyEnabled() }

// SetPinned pins (or unpins) the engine's workers to CPU cores. The
// returned error reports why pinning is unavailable or incomplete;
// execution continues correctly either way. Must not be called while a
// run is in flight.
func (e *Engine) SetPinned(on bool) error { return e.pool.SetPinned(on) }

// Pinned reports whether worker pinning is in effect.
func (e *Engine) Pinned() bool { return e.pool.Pinned() }

// Placement returns each worker's pinned CPU core, -1 where unpinned.
func (e *Engine) Placement() []int { return e.pool.Placement() }

// PinError returns the first pinning failure observed (nil if none).
func (e *Engine) PinError() error { return e.pool.PinError() }

// PinSupported reports whether this platform can pin worker threads
// (true on linux).
func PinSupported() bool { return par.AffinitySupported() }

// parallelFor adapts the engine's pool to grid.ParallelFor for
// first-touch allocation.
func (e *Engine) parallelFor() grid.ParallelFor {
	return func(n int, body func(i, worker int)) { e.pool.ForSticky(n, body) }
}

// AllocGrid1D allocates a 1D grid whose buffers are first-touched
// under the engine's worker mapping, so on NUMA machines each worker's
// share of the grid lands on that worker's memory node. Numerically
// identical to NewGrid1D.
func (e *Engine) AllocGrid1D(n, h int) *Grid1D {
	return grid.NewGrid1DParallel(n, h, e.parallelFor())
}

// AllocGrid2D is NewGrid2D with first-touch placement under the
// engine's worker mapping.
func (e *Engine) AllocGrid2D(nx, ny, hx, hy int) *Grid2D {
	return grid.NewGrid2DParallel(nx, ny, hx, hy, e.parallelFor())
}

// AllocGrid3D is NewGrid3D with first-touch placement under the
// engine's worker mapping.
func (e *Engine) AllocGrid3D(nx, ny, nz, hx, hy, hz int) *Grid3D {
	return grid.NewGrid3DParallel(nx, ny, nz, hx, hy, hz, e.parallelFor())
}

// Run1D advances a 1D grid by steps time steps of s under opt.
func (e *Engine) Run1D(g *Grid1D, s *Stencil, steps int, opt Options) error {
	return e.run(g.View(), s, steps, opt)
}

// Run2D advances a 2D grid by steps time steps of s under opt.
func (e *Engine) Run2D(g *Grid2D, s *Stencil, steps int, opt Options) error {
	return e.run(g.View(), s, steps, opt)
}

// Run3D advances a 3D grid by steps time steps of s under opt.
func (e *Engine) Run3D(g *Grid3D, s *Stencil, steps int, opt Options) error {
	return e.run(g.View(), s, steps, opt)
}

// run is Run1D, Run2D and Run3D on the grid v views.
func (e *Engine) run(v grid.View, s *Stencil, steps int, opt Options) error {
	if err := checkStencilRun(s, v.D, steps, opt); err != nil {
		return err
	}
	switch opt.Scheme {
	case Tessellation:
		sched, err := tessSchedule(v.Extents(), s.Slopes, 1, steps, opt)
		if err != nil {
			return err
		}
		return core.Run(v, stencil.OneStage(s), sched, e.pool, nil, nil, nil)
	case SpaceTiled:
		if v.D > 1 {
			def := 64
			if v.D == 3 {
				def = 16
			}
			tile := []int{blockOr(opt.Block, 0, def), blockOr(opt.Block, 1, def)}
			return naive.SpaceTiled(v, s, steps, tile, e.pool)
		}
		// A 1D space tile is the naive sweep's per-worker chunk.
		fallthrough
	case Naive:
		return naive.Run(v, stencil.OneStage(s), steps, e.pool, nil)
	case Skewed:
		return skew.Run(v, s, steps, skewConfig(s, opt), e.pool)
	case Diamond:
		return diamond.Run(v, s, steps, diamondConfig(s, opt), e.pool)
	case Oblivious:
		return oblivious.Run(v, s, steps, obliviousConfig(v.D, opt), e.pool)
	case MWD:
		if v.D > 1 {
			return diamond.RunMWD(v, s, steps, diamondConfig(s, opt), e.pool)
		}
	case Overlapped:
		if v.D == 2 {
			return overlap.Run(v, s, steps, overlapConfig(s, opt), e.pool)
		}
	case D35:
		if v.D == 3 {
			return d35.Run(v, s, steps, d35Config(s, opt), e.pool)
		}
	default:
		return fmt.Errorf("tessellate: unknown scheme %v", opt.Scheme)
	}
	return fmt.Errorf("tessellate: scheme %v is not available in %dD", opt.Scheme, v.D)
}

// RunND advances an n-dimensional grid with a generic stencil using the
// tessellation scheme (the only scheme implemented for d > 3). With
// opt.Periodic the boundary wraps around (paper §3.6); each domain
// extent must then be a multiple of the block lattice period
// Big[k]+Small[k], and the grid needs no halo.
func (e *Engine) RunND(g *NDGrid, s *GenericStencil, steps int, opt Options) error {
	if opt.Scheme != Tessellation {
		return fmt.Errorf("tessellate: only the tessellation scheme supports ND grids")
	}
	sched, err := tessSchedule(g.Dims, s.Slopes, 1, steps, opt)
	if err != nil {
		return err
	}
	return core.RunND(g, s, sched, e.pool, nil)
}

// Adaptive runs: a long-running engine can re-tune its tile
// parameters mid-flight. Phases of TimeTile steps are separated by
// full synchronization, so the phase boundary is the one point where
// re-tiling is legal; RunAdaptive* pauses there and consults a Retuner
// (typically autotune.Controller, which watches the live telemetry
// histograms for drift). Results are bitwise identical to a
// fixed-schedule run regardless of how often the retuner swaps tiles.

// PhaseBoundary describes the state of an adaptive run at a legal
// re-tiling point: every grid point has advanced exactly StepsDone of
// StepsTotal steps and the worker pool is idle.
type PhaseBoundary struct {
	StepsDone  int
	StepsTotal int
	// Options is the tiling the finished segment ran with, with
	// TimeTile and Block resolved to their effective values.
	Options Options
}

// Retuner is consulted between phases of an adaptive run.
// Implementations may inspect live telemetry, re-run measurements on
// throwaway grids (the pool is idle at the boundary), or follow a
// precomputed schedule.
type Retuner interface {
	// Phases returns how many phases (of TimeTile steps each) to run
	// between consultations. Values < 1 are treated as 1.
	Phases() int
	// Retune is called at a phase boundary. Returning (next, true)
	// re-tiles the remaining steps with next's TimeTile/Block/NoMerge/
	// CoarsenPerStage (the scheme cannot change mid-run); returning
	// (_, false) keeps the current tiling.
	Retune(b PhaseBoundary) (next Options, retile bool)
}

// RunAdaptive1D is Run1D with mid-flight re-tuning; only the
// tessellation scheme supports it.
func (e *Engine) RunAdaptive1D(g *Grid1D, s *Stencil, steps int, opt Options, rt Retuner) error {
	return e.runAdaptive(g.View(), s, steps, opt, rt)
}

// RunAdaptive2D is Run2D with mid-flight re-tuning; only the
// tessellation scheme supports it.
func (e *Engine) RunAdaptive2D(g *Grid2D, s *Stencil, steps int, opt Options, rt Retuner) error {
	return e.runAdaptive(g.View(), s, steps, opt, rt)
}

// RunAdaptive3D is Run3D with mid-flight re-tuning; only the
// tessellation scheme supports it.
func (e *Engine) RunAdaptive3D(g *Grid3D, s *Stencil, steps int, opt Options, rt Retuner) error {
	return e.runAdaptive(g.View(), s, steps, opt, rt)
}

// runAdaptive is RunAdaptive1D, RunAdaptive2D and RunAdaptive3D on the
// grid v views.
func (e *Engine) runAdaptive(v grid.View, s *Stencil, steps int, opt Options, rt Retuner) error {
	if err := checkAdaptive(s, v.D, steps, opt); err != nil {
		return err
	}
	n := v.Extents()
	cfg := tessConfig(n, s.Slopes, 1, opt)
	return core.RunPhased(steps, &cfg, phasesOf(rt), adaptiveHook(n, s, steps, rt), func(sc *core.Schedule) error {
		return core.Run(v, stencil.OneStage(s), sc, e.pool, nil, nil, nil)
	})
}

func checkAdaptive(s *Stencil, dims, steps int, opt Options) error {
	if err := checkStencilRun(s, dims, steps, opt); err != nil {
		return err
	}
	if opt.Scheme != Tessellation {
		return fmt.Errorf("tessellate: adaptive runs support only the tessellation scheme, got %v", opt.Scheme)
	}
	return nil
}

func phasesOf(rt Retuner) int {
	if rt == nil {
		return 1
	}
	return rt.Phases()
}

// adaptiveHook bridges core's PhaseHook to the public Retuner: it
// reports the effective tiling at each boundary and converts any
// replacement Options back into a core.Config.
func adaptiveHook(n []int, s *Stencil, steps int, rt Retuner) core.PhaseHook {
	if rt == nil {
		return nil
	}
	return func(done int, cur *core.Config) *core.Config {
		b := PhaseBoundary{
			StepsDone:  done,
			StepsTotal: steps,
			Options: Options{
				TimeTile:        cur.BT,
				Block:           append([]int(nil), cur.Big...),
				NoMerge:         !cur.Merge,
				CoarsenPerStage: append([]int(nil), cur.Coarsen.PerStage...),
			},
		}
		next, retile := rt.Retune(b)
		if !retile {
			return nil
		}
		next.Scheme = Tessellation
		nc := tessConfig(n, s.Slopes, 1, next)
		return &nc
	}
}

// Telemetry: the runtime observability subsystem (internal/telemetry)
// instruments the worker pool, the tessellation executors, the
// distributed exchange and the benchmark harness. It is off by
// default and costs < 2 ns per instrumented operation while off; see
// DESIGN.md §Observability for the metric namespace and trace schema.

// EnableTelemetry turns instrumentation on: metric counters,
// histograms and the phase tracer start recording. Results are
// bitwise identical with telemetry on or off.
func EnableTelemetry() { telemetry.Enable() }

// DisableTelemetry turns instrumentation back off; recorded values
// are retained.
func DisableTelemetry() { telemetry.Disable() }

// TelemetryEnabled reports whether instrumentation is on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// WriteMetrics renders all metrics in the Prometheus text exposition
// format (the same payload the /metrics endpoint serves).
func WriteMetrics(w io.Writer) error { return telemetry.Default.Write(w) }

// Trace dumps the recorded phase/stage spans as Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto to visualise the
// stage waves.
func Trace(w io.Writer) error { return telemetry.DefaultTracer.WriteJSON(w) }

// ResetTrace drops recorded spans and restarts the trace clock.
func ResetTrace() { telemetry.DefaultTracer.Reset() }

// TelemetryServer is a running observability HTTP listener serving
// /metrics (Prometheus text), /trace (Chrome trace JSON) and
// /debug/pprof/.
type TelemetryServer struct {
	s *telemetry.Server
}

// Addr returns the listener's bound address (useful with ":0").
func (t *TelemetryServer) Addr() string { return t.s.Addr() }

// Close stops the listener.
func (t *TelemetryServer) Close() error { return t.s.Close() }

// ServeTelemetry enables instrumentation and starts the observability
// HTTP listener on addr (e.g. ":8080").
func ServeTelemetry(addr string) (*TelemetryServer, error) {
	s, err := telemetry.Serve(addr)
	if err != nil {
		return nil, err
	}
	return &TelemetryServer{s: s}, nil
}

// tessSchedule builds the tessellation schedule advancing a domain of
// extents n at the given slopes by steps steps of a run with
// stencilStages stencil stages under opt (validating the tiling
// exactly as a config-driven run would).
func tessSchedule(n, slopes []int, stencilStages, steps int, opt Options) (*core.Schedule, error) {
	cfg := tessConfig(n, slopes, stencilStages, opt)
	return core.NewSchedule(&cfg, steps)
}

// tessConfig resolves Options to the tessellation's core.Config
// (core.NewConfig's tile-shape rule) for a run with stencilStages
// stencil stages: 1 for a plain spec, Pipeline.StencilStages
// otherwise.
func tessConfig(n, slopes []int, stencilStages int, opt Options) core.Config {
	cfg := core.NewConfig(n, slopes, stencilStages, opt.TimeTile, opt.Block, opt.NoMerge, opt.CoarsenPerStage)
	cfg.Periodic = opt.Periodic
	return cfg
}

// checkStencilRun validates the arguments every run of a plain stencil
// s on a grid of rank dims shares.
func checkStencilRun(s *Stencil, dims, steps int, opt Options) error {
	if steps < 0 {
		return fmt.Errorf("tessellate: negative steps %d", steps)
	}
	if s.Dims != dims {
		return fmt.Errorf("tessellate: %s is a %dD kernel, grid is %dD", s.Name, s.Dims, dims)
	}
	return checkPeriodic(opt)
}

// checkPeriodic rejects opt.Periodic under every scheme but the
// tessellation, whose core executors reject it themselves everywhere
// but RunND: no baseline implements wrap-around boundaries.
func checkPeriodic(opt Options) error {
	if opt.Periodic && opt.Scheme != Tessellation {
		return fmt.Errorf("tessellate: scheme %v has no periodic boundaries", opt.Scheme)
	}
	return nil
}

func skewConfig(s *Stencil, opt Options) skew.Config {
	bt := opt.TimeTile
	if bt <= 0 {
		bt = 8
	}
	cfg := skew.Config{BT: bt, BX: make([]int, s.Dims)}
	for k := range cfg.BX {
		cfg.BX[k] = blockOr(opt.Block, k, 4*bt*s.Slopes[k])
	}
	return cfg
}

func diamondConfig(s *Stencil, opt Options) diamond.Config {
	bt := opt.TimeTile
	if bt <= 0 {
		bt = 8
	}
	return diamond.Config{BT: bt, BX: blockOr(opt.Block, 0, 4*bt*s.Slopes[0])}
}

func overlapConfig(s *Stencil, opt Options) overlap.Config {
	bt := opt.TimeTile
	if bt <= 0 {
		bt = 4
	}
	cfg := overlap.Config{BT: bt, BX: make([]int, s.Dims)}
	for k := 0; k < s.Dims; k++ {
		cfg.BX[k] = blockOr(opt.Block, k, 16*bt*s.Slopes[k])
	}
	return cfg
}

func d35Config(s *Stencil, opt Options) d35.Config {
	bt := opt.TimeTile
	if bt <= 0 {
		bt = 4
	}
	return d35.Config{
		BT: bt,
		TY: blockOr(opt.Block, 1, 8*bt*s.Slopes[1]),
		TZ: blockOr(opt.Block, 2, 8*bt*s.Slopes[2]),
	}
}

func obliviousConfig(d int, opt Options) oblivious.Config {
	cfg := oblivious.DefaultConfig(d)
	if opt.TimeTile > 0 {
		cfg.TCut = opt.TimeTile
	}
	if len(opt.Block) == d {
		copy(cfg.SCut, opt.Block)
	}
	return cfg
}

func blockOr(block []int, k, def int) int {
	if k < len(block) && block[k] > 0 {
		return block[k]
	}
	return def
}
