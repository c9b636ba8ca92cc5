package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/stencil"
)

// JobOptions carries the optional tiling parameters of a job,
// mirroring the public tessellate.Options for the tessellation scheme
// (the only scheme the server runs: it is the paper's contribution and
// the fastest on every serving shape).
type JobOptions struct {
	// TimeTile is the temporal tile height BT (0 = auto).
	TimeTile int `json:"time_tile,omitempty"`
	// Block is the per-dimension coarse block size Big. Empty picks
	// core.NewConfig's one-stencil-stage default: L1-sized tiles,
	// max(2·BT·slope, 32) × max(2·BT·slope, 64), for 2D jobs and the
	// §4.2 shape at the resolved BT otherwise, clamped to the domain.
	Block []int `json:"block,omitempty"`
	// NoMerge disables the §4.3 B_d+B_0 merging.
	NoMerge bool `json:"no_merge,omitempty"`
	// CoarsenPerStage is the §4.2 dispatch coarsening vector.
	CoarsenPerStage []int `json:"coarsen_per_stage,omitempty"`
}

// JobRequest is the body of POST /v1/jobs. Kernel selects either a
// built-in benchmark spec by its Table 4 name ("heat-1d", "1d5p",
// "heat-2d", "2d9p", "game-of-life", "heat-3d", "3d27p") or a generic
// stencil family ("star" or "box") parametrised by Order, with the
// dimensionality taken from len(N). Built-in kernels run the
// specialised 1D/2D/3D executors with block kernels; generic ones run
// the formula-driven ND executor.
type JobRequest struct {
	// Tenant identifies the caller for metric labels and accounting
	// (optional; empty means "default"). Tenants share the queue and
	// engine pool; their jobs are distinguished in every tess_jobs_*
	// metric.
	Tenant string `json:"tenant,omitempty"`
	// Kernel is the stencil to run (see type comment).
	Kernel string `json:"kernel"`
	// Order is the stencil order for generic kernels (default 1);
	// ignored for built-ins.
	Order int `json:"order,omitempty"`
	// N is the spatial domain extent per dimension.
	N []int `json:"n"`
	// Steps is the number of time steps to advance.
	Steps int `json:"steps"`
	// Seed selects the deterministic initial condition (see
	// SeedGrid2D); two jobs with equal (kernel, n, seed) start from
	// bitwise-identical grids.
	Seed int64 `json:"seed,omitempty"`
	// Boundary overrides the halo value (nil = DefaultBoundary).
	Boundary *float64 `json:"boundary,omitempty"`
	// Mask restricts the update to a named irregular domain ("lshape"
	// or "obstacle", see grid.NamedMask); inactive cells stay frozen at
	// their seeded values. Masks require a built-in kernel: the generic
	// star/box executor is unmasked.
	Mask string `json:"mask,omitempty"`
	// Options tunes the tessellation (zero value = auto-tiled).
	Options JobOptions `json:"options,omitempty"`
	// Stream selects NDJSON event streaming: a "queued" event at
	// admission, then a "result" event, then (with Values) one
	// "values" event per grid row.
	Stream bool `json:"stream,omitempty"`
	// Values requests the final grid values in the response stream
	// (rank <= 2 and at most MaxValuePoints points; implies Stream).
	Values bool `json:"values,omitempty"`
}

// JobResult is the body of a successful job response (and the
// "result" event in stream mode).
type JobResult struct {
	JobID  string `json:"job_id"`
	Tenant string `json:"tenant"`
	Kernel string `json:"kernel"`
	N      []int  `json:"n"`
	Steps  int    `json:"steps"`
	Engine int    `json:"engine"`
	// Checksum is the fixed-order interior sum of the final grid;
	// bitwise-reproducible for equal (kernel, n, steps, seed,
	// boundary) regardless of tiling options, engine or concurrency.
	Checksum float64 `json:"checksum"`
	// Updates is the number of point updates performed (prod(N)*steps).
	Updates int64 `json:"updates"`
	// QueueSeconds is the admission-to-pickup queue wait.
	QueueSeconds float64 `json:"queue_seconds"`
	// RunSeconds is the engine execution wall time.
	RunSeconds float64 `json:"run_seconds"`
	// MLUPs is Updates/RunSeconds in millions.
	MLUPs float64 `json:"mlups"`
	// Cached reports that the checksum was served from the
	// deterministic result cache without executing the job (Engine is
	// -1 and the timing fields are zero in that case).
	Cached bool `json:"cached,omitempty"`
}

// MaxValuePoints bounds the grid size a job may stream back values
// for; larger results are available only as checksums.
const MaxValuePoints = 1 << 18

// job is one queued unit of work.
type job struct {
	req      JobRequest
	id       uint64
	tenant   string           // sanitized + interned metric label
	spec     *stencil.Spec    // built-in path (rank 1-3)
	gen      *stencil.Generic // generic path (any rank)
	mask     *grid.Mask       // shared, read-only named mask; nil when unmasked
	sched    *core.Schedule   // resolved at admission (see prepare)
	cost     int64            // DRR service cost: points x steps, >= 1
	ckey     string           // result-cache key (set in prepare)
	enqueued time.Time

	// state tracks the queued -> running / queued -> canceled
	// transition; both transitions happen under the fair queue's mutex,
	// so exactly one side wins. stop is the cooperative cancel flag a
	// disconnect sets for an already-running job; the executors check
	// it between schedule replay regions.
	state atomic.Int32
	stop  atomic.Bool

	done chan struct{} // closed when res/err are final
	res  JobResult
	err  error
	// keepGrid asks the engine to hand the final grid to the handler
	// (for value streaming) instead of releasing it; release then
	// returns it to the owning arena.
	grid    any
	release func()
}

// resolve validates the request against the server limits and
// resolves the kernel, returning a descriptive error for a 400.
func (s *Server) resolve(req *JobRequest) (*stencil.Spec, *stencil.Generic, error) {
	if len(req.N) == 0 {
		return nil, nil, fmt.Errorf("n is required")
	}
	if len(req.N) > s.cfg.MaxDims {
		return nil, nil, fmt.Errorf("rank %d exceeds the limit of %d dimensions", len(req.N), s.cfg.MaxDims)
	}
	// Check each factor against the limit before multiplying: the
	// bound-then-multiply order keeps `points` <= MaxPoints at all
	// times, so the product can never overflow int64 and sneak an
	// astronomically large domain past admission.
	points := int64(1)
	maxPts := int64(s.cfg.MaxPoints)
	for k, nk := range req.N {
		if nk < 1 {
			return nil, nil, fmt.Errorf("n[%d]=%d must be >= 1", k, nk)
		}
		if int64(nk) > maxPts || points > maxPts/int64(nk) {
			return nil, nil, fmt.Errorf("grid of %v exceeds the limit of %d points", req.N, s.cfg.MaxPoints)
		}
		points *= int64(nk)
	}
	if req.Steps < 1 {
		return nil, nil, fmt.Errorf("steps=%d must be >= 1", req.Steps)
	}
	if req.Steps > s.cfg.MaxSteps {
		return nil, nil, fmt.Errorf("steps=%d exceeds the limit of %d", req.Steps, s.cfg.MaxSteps)
	}
	if err := validateOptions(&req.Options, len(req.N)); err != nil {
		return nil, nil, err
	}
	if req.Values && (len(req.N) > 2 || points > MaxValuePoints) {
		return nil, nil, fmt.Errorf("values are limited to rank <= 2 grids of at most %d points", MaxValuePoints)
	}
	switch req.Kernel {
	case "star", "box":
		order := req.Order
		if order == 0 {
			order = 1
		}
		if order < 1 || order > 4 {
			return nil, nil, fmt.Errorf("order=%d must be in [1, 4]", req.Order)
		}
		var g *stencil.Generic
		if req.Kernel == "star" {
			g = stencil.NewStar(len(req.N), order)
		} else {
			g = stencil.NewBox(len(req.N), order)
		}
		return nil, g, nil
	default:
		spec, err := stencil.ByName(req.Kernel)
		if err != nil {
			return nil, nil, fmt.Errorf("%v (or \"star\"/\"box\" with order for a generic stencil)", err)
		}
		if spec.Dims != len(req.N) {
			return nil, nil, fmt.Errorf("%s is a %dD kernel, n=%v is %dD", spec.Name, spec.Dims, req.N, len(req.N))
		}
		return spec, nil, nil
	}
}

// prepare resolves the job's tessellation schedule at admission time.
// Option combinations that pass validateOptions field-by-field but
// produce an invalid core.Config (e.g. a block too small for the
// resolved BT and slopes) fail here with a descriptive error for a
// 400, before the job ever reaches the queue — engine-side errors stay
// reserved for genuine internal failures. The schedule and any named
// mask come from shared caches, so warm shapes pay one lookup each and
// cold shapes are built off the engines' serving path. prepare also
// fixes the job's DRR service cost and its deterministic result-cache
// key.
func (s *Server) prepare(j *job) error {
	var slopes []int
	if j.spec != nil {
		slopes = j.spec.Slopes
	} else {
		slopes = j.gen.Slopes
	}
	if j.req.Mask != "" {
		if j.spec == nil {
			return fmt.Errorf("mask %q requires a built-in kernel (generic star/box jobs run unmasked)", j.req.Mask)
		}
		m, err := s.masks.get(j.req.Mask, j.req.N)
		if err != nil {
			return err
		}
		j.mask = m
	}
	o := &j.req.Options
	// Every served job runs one stencil stage (a built-in spec or a
	// generic star/box), so 2D jobs get NewConfig's L1 tiles.
	cfg := core.NewConfig(j.req.N, slopes, 1, o.TimeTile, o.Block, o.NoMerge, o.CoarsenPerStage)
	sched, err := s.sched.Get(&cfg, j.req.Steps)
	if err != nil {
		return err
	}
	j.sched = sched
	cost := int64(1)
	if j.mask != nil {
		// A masked job updates only its active points; costing (and
		// reporting, via the cached path's Updates) the active set keeps
		// DRR service proportional to actual work.
		cost = int64(j.mask.ActiveCount())
	} else {
		for _, nk := range j.req.N {
			cost *= int64(nk) // admission bounded the product, no overflow
		}
	}
	cost *= int64(j.req.Steps)
	if cost < 1 {
		cost = 1
	}
	j.cost = cost
	if s.rcache != nil {
		j.ckey = resultKey(&j.req, j.order(), j.boundary())
	}
	return nil
}

// order returns the job's effective stencil order for the result-cache
// key: 0 for built-in specs (the name fixes the stencil), the resolved
// order for generic star/box kernels (where 0 defaults to 1).
func (j *job) order() int {
	if j.spec != nil {
		return 0
	}
	if j.req.Order == 0 {
		return 1
	}
	return j.req.Order
}

func validateOptions(o *JobOptions, dims int) error {
	if o.TimeTile < 0 {
		return fmt.Errorf("options.time_tile=%d must be >= 0", o.TimeTile)
	}
	if len(o.Block) != 0 && len(o.Block) != dims {
		return fmt.Errorf("options.block %v must have one entry per dimension (%d)", o.Block, dims)
	}
	for k, b := range o.Block {
		if b < 1 {
			return fmt.Errorf("options.block[%d]=%d must be >= 1", k, b)
		}
	}
	if len(o.CoarsenPerStage) > dims+1 {
		return fmt.Errorf("options.coarsen_per_stage %v longer than stage count %d", o.CoarsenPerStage, dims+1)
	}
	for i, f := range o.CoarsenPerStage {
		if f < 1 || f > core.MaxCoarsen {
			return fmt.Errorf("options.coarsen_per_stage[%d]=%d out of range [1, %d]", i, f, core.MaxCoarsen)
		}
	}
	return nil
}

// boundary resolves the job's halo value.
func (j *job) boundary() float64 {
	if j.req.Boundary != nil {
		return *j.req.Boundary
	}
	return DefaultBoundary(j.req.Kernel)
}

// sanitizeTenant maps an arbitrary tenant string to a bounded metric
// label: [A-Za-z0-9_.-] kept, everything else replaced by '_', capped
// at 48 bytes, empty mapped to "default". Bounding the charset and
// length keeps hostile tenants from exploding exposition cardinality
// or breaking dashboards.
func sanitizeTenant(t string) string {
	if t == "" {
		return "default"
	}
	if len(t) > 48 {
		t = t[:48]
	}
	b := []byte(t)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '.', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
