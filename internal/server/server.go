package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Config sizes the server. The zero value serves: every field has a
// machine-derived default.
type Config struct {
	// Addr is the listen address ("" = 127.0.0.1:0, port chosen by
	// the kernel and readable from Addr() — the test/smoke default).
	Addr string
	// Engines is the number of execution lanes (0 = min(4, NumCPU)).
	Engines int
	// ThreadsPerEngine is each lane's pool width
	// (0 = NumCPU/Engines, at least 1).
	ThreadsPerEngine int
	// QueueDepth is the default per-tenant admission bound when
	// TenantQueueDepth is unset (0 = 4*Engines). Kept for
	// compatibility with PR-6 configs, where it bounded the single
	// shared queue.
	QueueDepth int
	// TenantQueueDepth bounds each tenant's admission sub-queue
	// (0 = QueueDepth). A tenant whose sub-queue is full sheds its own
	// load with 429 + Retry-After; other tenants are unaffected.
	TenantQueueDepth int
	// TenantWeights assigns deficit-round-robin service weights by
	// (sanitized) tenant name; absent tenants weigh 1. A tenant with
	// weight w receives w times the long-run engine service of a
	// weight-1 tenant while both have queued work.
	TenantWeights map[string]int
	// MaxTenants bounds the number of distinct tenant labels tracked
	// (metrics children + sub-queues); tenants beyond the cap collapse
	// into the "other" label (0 = 1024).
	MaxTenants int
	// Pin pins engine workers to disjoint CPU slices (PartitionCPUs).
	Pin bool
	// Sticky enables sticky block->worker scheduling in each pool.
	Sticky bool
	// MaxPoints bounds prod(n) per job (0 = 1<<24).
	MaxPoints int
	// MaxSteps bounds steps per job (0 = 1<<20).
	MaxSteps int
	// MaxDims bounds the rank of generic jobs (0 = 8).
	MaxDims int
	// ScheduleCacheSize bounds the shared schedule cache
	// (0 = core.DefaultScheduleCacheSize).
	ScheduleCacheSize int
	// ResultCacheSize bounds the deterministic result cache's entry
	// count (0 = DefaultResultCacheSize, < 0 disables the cache).
	ResultCacheSize int
	// ResultCacheBytes bounds the result cache's total memory
	// (0 = DefaultResultCacheBytes).
	ResultCacheBytes int64
	// ArenaDepth bounds each engine arena's per-length free list
	// (0 = grid.DefaultArenaDepth).
	ArenaDepth int
	// ArenaMaxBytes bounds each engine arena's total pooled memory
	// across all buffer lengths (0 = grid.DefaultArenaMaxBytes).
	ArenaMaxBytes int64
	// KernelPath selects the process-wide kernel dispatch ceiling
	// ("row", "block" or "simd"; "" keeps the current setting, which
	// defaults to simd). All paths compute bitwise-identical results;
	// a simd request without CPU support degrades to block and is
	// counted in tess_kernel_simd_fallbacks_total. Schedule replays
	// pick the path up atomically at their next run, so it is safe to
	// change on a live server via core.SetKernelPath. Unknown names
	// are rejected by New.
	KernelPath string
}

func (c *Config) setDefaults() {
	if c.Engines <= 0 {
		c.Engines = min(4, runtime.NumCPU())
	}
	if c.ThreadsPerEngine <= 0 {
		c.ThreadsPerEngine = max(1, runtime.NumCPU()/c.Engines)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Engines
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 1 << 24
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1 << 20
	}
	if c.MaxDims <= 0 {
		c.MaxDims = 8
	}
	if c.ScheduleCacheSize <= 0 {
		c.ScheduleCacheSize = core.DefaultScheduleCacheSize
	}
	if c.ArenaDepth <= 0 {
		c.ArenaDepth = grid.DefaultArenaDepth
	}
	if c.ArenaMaxBytes <= 0 {
		c.ArenaMaxBytes = grid.DefaultArenaMaxBytes
	}
}

// tenantOverflow is the collapsed label for tenants beyond MaxTenants:
// distinct hostile tenant names must not grow the metrics exposition
// or the scheduler state without bound.
const tenantOverflow = "other"

// tenantMetrics caches one tenant's metric children so the hot path
// never pays the label-join map lookup of Family.Counter.
type tenantMetrics struct {
	accepted     *telemetry.Counter
	rejQueueFull *telemetry.Counter
	rejDraining  *telemetry.Counter
	rejInvalid   *telemetry.Counter
	completedOK  *telemetry.Counter
	completedErr *telemetry.Counter
	canceled     *telemetry.Counter
	duration     *telemetry.Histogram
}

func newTenantMetrics(tenant string) *tenantMetrics {
	return &tenantMetrics{
		accepted:     telemetry.JobsAccepted.Counter(tenant),
		rejQueueFull: telemetry.JobsRejected.Counter(tenant, "queue_full"),
		rejDraining:  telemetry.JobsRejected.Counter(tenant, "draining"),
		rejInvalid:   telemetry.JobsRejected.Counter(tenant, "invalid"),
		completedOK:  telemetry.JobsCompleted.Counter(tenant, "ok"),
		completedErr: telemetry.JobsCompleted.Counter(tenant, "error"),
		canceled:     telemetry.JobsCanceled.Counter(tenant),
		duration:     telemetry.JobDurationSeconds.Histogram(tenant),
	}
}

// Server is the multi-tenant engine server. One Server owns its
// engines, fair queue and HTTP listener; construct with New, run with
// Start, stop with Shutdown (graceful drain) or Close (immediate).
type Server struct {
	cfg     Config
	sched   *core.ScheduleCache
	rcache  *resultCache // nil when disabled
	masks   *maskCache
	engines []*engine
	fq      *fairQueue

	draining atomic.Bool
	engineWG sync.WaitGroup
	nextID   atomic.Uint64

	// ewmaRun is the exponentially-weighted mean job run time in
	// seconds (float64 bits), feeding the Retry-After estimate. Both
	// successful and failed runs fold in: during an error storm the
	// engines are still busy for the observed time, and a stale
	// estimate would tell clients to come back too soon.
	ewmaRun atomic.Uint64

	// accepted/rejected/completed/canceled mirror the tess_jobs_*
	// counters for the /v1/stats endpoint (which must work even when
	// telemetry metrics are disabled).
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	canceled  atomic.Uint64

	tmu     sync.RWMutex
	tenants map[string]*tenantMetrics

	// serveErr records an http.Server.Serve failure (broken listener):
	// the server cannot accept work, so /healthz flips to 503 and
	// Err() reports the cause instead of the failure being swallowed.
	serveErr atomic.Value // error

	ln net.Listener
	hs *http.Server
}

// New builds a server: engines (pools pinned + arenas wired), fair
// queue, schedule and result caches, but no listener yet. It enables
// the telemetry subsystem: a server without /metrics is flying blind,
// and the gate exists for offline library use, not serving.
func New(cfg Config) *Server {
	cfg.setDefaults()
	telemetry.Enable()
	if cfg.KernelPath != "" {
		if err := core.SetKernelPath(cfg.KernelPath); err != nil {
			// Misconfiguration, not a runtime condition: fail loudly at
			// construction rather than serving on a surprise path.
			panic(err)
		}
	}
	weights := make(map[string]int, len(cfg.TenantWeights))
	for t, w := range cfg.TenantWeights {
		weights[sanitizeTenant(t)] = w
	}
	s := &Server{
		cfg:     cfg,
		sched:   core.NewScheduleCache(cfg.ScheduleCacheSize),
		masks:   newMaskCache(),
		fq:      newFairQueue(cfg.TenantQueueDepth, weights),
		tenants: make(map[string]*tenantMetrics),
	}
	if cfg.ResultCacheSize >= 0 {
		s.rcache = newResultCache(cfg.ResultCacheSize, cfg.ResultCacheBytes)
	}
	s.engines = buildEngines(&s.cfg)
	for _, e := range s.engines {
		s.engineWG.Add(1)
		go s.engineLoop(e)
	}
	return s
}

// Start listens on cfg.Addr and serves HTTP until Shutdown/Close.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux()}
	go func() {
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// A post-bind listener failure leaves a server that accepts
			// nothing: record it so Err() and /healthz report the
			// condition instead of silently serving no one. The engines
			// keep draining and Shutdown still completes.
			s.serveErr.Store(err)
			fmt.Fprintf(os.Stderr, "server: listener failed: %v\n", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Err returns the recorded http.Server.Serve failure, or nil while the
// listener is (still) healthy.
func (s *Server) Err() error {
	if v := s.serveErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Engines returns the number of execution lanes.
func (s *Server) Engines() int { return len(s.engines) }

// ScheduleCache exposes the shared schedule cache (for tests/stats).
func (s *Server) ScheduleCache() *core.ScheduleCache { return s.sched }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// errDraining, errQueueFull and errCanceled classify admission
// refusals and the canceled terminal state.
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("tenant job queue is full")
	errCanceled  = errors.New("job canceled by client disconnect")
)

// enqueue admits a job to its tenant's sub-queue or refuses with
// errDraining/errQueueFull.
func (s *Server) enqueue(j *job) error {
	if s.draining.Load() {
		return errDraining
	}
	if err := s.fq.push(j); err != nil {
		return err
	}
	telemetry.JobsQueueDepth.AddUngated(1)
	return nil
}

// retryAfter estimates (in whole seconds, clamped to [1, 60]) how long
// until a tenant's sub-queue has room: the smoothed job run time times
// the work queued ahead of a new arrival, divided across the engines.
func (s *Server) retryAfter(tenant string) int {
	// The new arrival waits (roughly) for its tenant's own backlog to
	// be served at the tenant's fair share, which is at least
	// 1/activeTenants of the engines; estimating with the global
	// backlog over all engines stays within the same magnitude and
	// needs no scheduler introspection.
	return s.clampSeconds(float64(s.fq.tenantBacklog(tenant) + 1))
}

// drainRetryAfter estimates how long the ongoing drain will take:
// the remaining queued jobs served across all engines. Emitted with
// every draining 503 so well-behaved clients back off instead of
// hammering a shutting-down server.
func (s *Server) drainRetryAfter() int {
	return s.clampSeconds(float64(s.fq.len() + 1))
}

// clampSeconds turns a queued-job count into whole seconds of expected
// wait, clamped to [1, 60].
func (s *Server) clampSeconds(jobsAhead float64) int {
	ewma := math.Float64frombits(s.ewmaRun.Load())
	if ewma <= 0 {
		ewma = 0.1
	}
	sec := ewma * jobsAhead / float64(len(s.engines))
	n := int(math.Ceil(sec))
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

// observeRun folds one job's run time into the EWMA (alpha 0.2).
func (s *Server) observeRun(sec float64) {
	for {
		old := s.ewmaRun.Load()
		prev := math.Float64frombits(old)
		next := sec
		if prev > 0 {
			next = 0.8*prev + 0.2*sec
		}
		if s.ewmaRun.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// engineLoop pulls jobs via deficit round robin until the fair queue
// is closed AND empty: jobs admitted before Shutdown closed the queue
// are all executed — the graceful-drain guarantee.
func (s *Server) engineLoop(e *engine) {
	defer s.engineWG.Done()
	for {
		j, ok := s.fq.pop()
		if !ok {
			return
		}
		s.execute(e, j)
	}
}

// execute runs one job on one engine and publishes the result.
func (s *Server) execute(e *engine, j *job) {
	pickup := time.Now()
	telemetry.JobsQueueDepth.AddUngated(-1)
	qwait := pickup.Sub(j.enqueued)
	telemetry.JobQueueSeconds.Observe(qwait.Seconds())
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name: "queue", Cat: "serve", TID: e.id, Phase: -1, Stage: -1,
	}, j.enqueued)
	telemetry.ServeEnginesBusy.AddUngated(1)
	defer telemetry.ServeEnginesBusy.AddUngated(-1)

	err := s.runSafe(e, j)

	runSec := time.Since(pickup).Seconds()
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name: "job:" + j.req.Kernel, Cat: "serve", TID: e.id,
		Phase: -1, Stage: -1, Points: j.res.Updates,
	}, pickup)
	// Timing fields and the Retry-After EWMA are populated on every
	// path — a failed or canceled job occupied the engine for exactly
	// as long as it ran, and an error storm must not freeze the
	// estimate at the last success.
	s.observeRun(runSec)
	j.res.QueueSeconds = qwait.Seconds()
	j.res.RunSeconds = runSec
	j.res.Engine = e.id
	_, tm := s.tenant(j.tenant)
	switch {
	case errors.Is(err, core.ErrStopped):
		// Cooperative cancel landed between replay regions: the
		// client is gone, so this is the canceled terminal state, not
		// an error.
		s.canceled.Add(1)
		tm.canceled.Inc()
		j.err = errCanceled
	case err != nil:
		s.completed.Add(1)
		tm.completedErr.Inc()
		tm.duration.Observe(runSec)
		j.err = err
	default:
		s.completed.Add(1)
		tm.completedOK.Inc()
		tm.duration.Observe(runSec)
		if runSec > 0 {
			j.res.MLUPs = float64(j.res.Updates) / runSec / 1e6
		}
		if s.rcache != nil && j.ckey != "" {
			s.rcache.put(j.ckey, j.res.Checksum)
		}
	}
	close(j.done)
}

// runSafe runs one job, converting a panic anywhere in the execution
// path (grid checkout, kernel, schedule replay) into that job's error:
// the server is multi-tenant, so one malformed or adversarial job must
// fail alone, not take the process — and every other tenant — down
// with it.
func (s *Server) runSafe(e *engine, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// The stack goes to stderr for the operator; the tenant's
			// error stays terse (internal paths are not theirs to see).
			fmt.Fprintf(os.Stderr, "server: job j-%d panicked: %v\n%s", j.id, r, debug.Stack())
			err = fmt.Errorf("internal error: job panicked: %v", r)
		}
	}()
	return s.run(e, j)
}

// run seeds, executes and digests one job on engine e. The built-in
// (Spec) ranks check grids out of the engine arena and replay cached
// schedules, so a warm shape performs no large allocation and no
// schedule construction; the generic ND path allocates its grid (it is
// the flexibility path, not the serving hot path). Every executor call
// passes the job's cooperative stop flag: a disconnect mid-run aborts
// at the next region boundary with core.ErrStopped.
func (s *Server) run(e *engine, j *job) error {
	req := &j.req
	bd := j.boundary()
	points := int64(1)
	for _, nk := range req.N {
		points *= int64(nk)
	}
	j.res = JobResult{
		JobID:   "j-" + strconv.FormatUint(j.id, 10),
		Tenant:  j.tenant,
		Kernel:  req.Kernel,
		N:       req.N,
		Steps:   req.Steps,
		Updates: points * int64(req.Steps),
	}
	if j.mask != nil {
		// Masked jobs update only active points; the executor skips
		// frozen boxes and runs mixed ones segment by segment.
		j.res.Updates = int64(j.mask.ActiveCount()) * int64(req.Steps)
	}

	// The schedule was resolved and validated at admission (prepare),
	// so reaching an engine with a config error is impossible by
	// construction.
	sched := j.sched

	if j.spec != nil {
		pipe := stencil.OneStage(j.spec)
		switch j.spec.Dims {
		case 1:
			g := e.arena.Grid1D(req.N[0], j.spec.Slopes[0])
			SeedGrid1D(g, req.Kernel, req.Seed, bd)
			if err := core.Run1D(g, pipe, sched, e.pool, j.mask, &j.stop); err != nil {
				e.arena.Release(g)
				return err
			}
			j.res.Checksum = Checksum1D(g)
			s.finishGrid(e, j, g)
		case 2:
			g := e.arena.Grid2D(req.N[0], req.N[1], j.spec.Slopes[0], j.spec.Slopes[1])
			SeedGrid2D(g, req.Kernel, req.Seed, bd)
			if err := core.Run2D(g, pipe, sched, e.pool, j.mask, &j.stop); err != nil {
				e.arena.Release(g)
				return err
			}
			j.res.Checksum = Checksum2D(g)
			s.finishGrid(e, j, g)
		case 3:
			g := e.arena.Grid3D(req.N[0], req.N[1], req.N[2],
				j.spec.Slopes[0], j.spec.Slopes[1], j.spec.Slopes[2])
			SeedGrid3D(g, req.Kernel, req.Seed, bd)
			if err := core.Run3D(g, pipe, sched, e.pool, j.mask, &j.stop); err != nil {
				e.arena.Release(g)
				return err
			}
			j.res.Checksum = Checksum3D(g)
			s.finishGrid(e, j, g)
		}
		return nil
	}

	g := grid.NewNDGrid(req.N, j.gen.Slopes)
	SeedGridND(g, req.Kernel, req.Seed, bd)
	if err := core.RunND(g, j.gen, sched, e.pool, &j.stop); err != nil {
		return err
	}
	j.res.Checksum = ChecksumND(g)
	if req.Values {
		j.grid = g
		j.release = func() {}
	}
	return nil
}

// finishGrid either returns the grid to the arena or, when the job
// requested values, hands it to the handler with a release hook.
func (s *Server) finishGrid(e *engine, j *job, g any) {
	if j.req.Values {
		j.grid = g
		j.release = func() { e.arena.Release(g) }
		return
	}
	e.arena.Release(g)
}

// tenant maps a raw tenant name to its bounded metric label and cached
// metric children: the name is sanitized, then — if it is new and the
// distinct-tenant cap is reached — collapsed into the "other" overflow
// label, so hostile clients minting unbounded tenant names cannot grow
// the exposition, the metrics map or the scheduler state without
// bound. Idempotent on already-interned labels.
func (s *Server) tenant(raw string) (string, *tenantMetrics) {
	t := sanitizeTenant(raw)
	s.tmu.RLock()
	tm := s.tenants[t]
	s.tmu.RUnlock()
	if tm != nil {
		return t, tm
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if tm = s.tenants[t]; tm != nil {
		return t, tm
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		t = tenantOverflow
		if tm = s.tenants[t]; tm != nil {
			return t, tm
		}
	}
	tm = newTenantMetrics(t)
	s.tenants[t] = tm
	return t, tm
}

// cancelQueued finalizes a job whose client disconnected before an
// engine picked it up: the fair queue unlinks it, the canceled
// terminal state is recorded, and done closes so any waiter returns.
// Reports false when the job is already running (the caller should set
// the cooperative stop flag instead).
func (s *Server) cancelQueued(j *job, tm *tenantMetrics) bool {
	if !s.fq.cancel(j) {
		return false
	}
	telemetry.JobsQueueDepth.AddUngated(-1)
	s.canceled.Add(1)
	tm.canceled.Inc()
	j.err = errCanceled
	close(j.done)
	return true
}

// Shutdown drains gracefully: new jobs are refused (503), queued jobs
// run to completion, in-flight HTTP responses are delivered, then the
// listener and engine pools are torn down. It returns ctx.Err() if the
// drain outlives the context (engines keep draining regardless).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // second Shutdown: already draining
	}
	// Closing the fair queue stops admission (push refuses under the
	// queue's own lock — no in-flight enqueue can slip past) while
	// pop keeps handing out the admitted backlog until it is empty.
	s.fq.close()

	drained := make(chan struct{})
	go func() {
		s.engineWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	for _, e := range s.engines {
		e.close()
	}
	return nil
}

// Close tears the server down without waiting for queued jobs' HTTP
// responses: it force-closes the listener, then drains like Shutdown
// (engines still finish queued work so no goroutine leaks).
func (s *Server) Close() error {
	if s.hs != nil {
		_ = s.hs.Close()
	}
	if !s.draining.Swap(true) {
		s.fq.close()
	}
	s.engineWG.Wait()
	for _, e := range s.engines {
		e.close()
	}
	return nil
}
