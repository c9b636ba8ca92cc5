package telemetry

// The canonical metric catalog. Every instrumented layer records into
// these handles; declaring them here (rather than in par/core/dist)
// keeps the namespace in one place, avoids import cycles, and makes
// every family visible in an exposition even before it has samples.
//
// Naming follows Prometheus conventions: tess_ prefix, base units
// (seconds, bytes), _total suffix on counters.

// Bucket shapes: durations from 100 ns to ~27 s, sizes from 1 to ~16M.
var (
	// DurationBuckets covers 100ns..~27s in powers of four.
	DurationBuckets = ExpBuckets(1e-7, 4, 15)
	// SizeBuckets covers 1..~16.7M in powers of four.
	SizeBuckets = ExpBuckets(1, 4, 13)
)

// internal/par — the worker-pool substrate.
var (
	// PoolDispatchSeconds is the time Pool.For spends handing chunk
	// runners to workers (channel sends), i.e. dispatch latency.
	PoolDispatchSeconds = Default.NewHistogramFamily(
		"tess_pool_dispatch_seconds",
		"Time Pool.For spends dispatching chunk runners to pool workers.",
		DurationBuckets).Histogram()
	// PoolForSeconds is the full wall time of each Pool.For region.
	PoolForSeconds = Default.NewHistogramFamily(
		"tess_pool_for_seconds",
		"Wall time of each Pool.For parallel region, dispatch through completion.",
		DurationBuckets).Histogram()
	// PoolForSize is the iteration count n of each Pool.For call.
	PoolForSize = Default.NewHistogramFamily(
		"tess_pool_for_size",
		"Iteration count (number of blocks) of each Pool.For parallel region.",
		SizeBuckets).Histogram()
	// PoolWorkersBusy is the number of pool workers currently running a
	// job (worker occupancy).
	PoolWorkersBusy = Default.NewGauge(
		"tess_pool_workers_busy",
		"Pool workers currently executing a parallel-for job.").Gauge()
	// PoolBlocksFamily counts parallel-for iterations executed, by
	// scheduling mode ("dynamic" chunked self-scheduling vs "sticky"
	// static mapping). Sharded per worker: every worker bumps it on
	// every claimed chunk, so a shared line would ping-pong.
	PoolBlocksFamily = Default.NewShardedCounter(
		"tess_pool_blocks_total",
		"Parallel-for iterations executed, by scheduling mode.",
		"mode")
	// PoolBlocksDynamic / PoolBlocksSticky are the cached per-mode
	// children of PoolBlocksFamily.
	PoolBlocksDynamic = PoolBlocksFamily.ShardedCounter("dynamic")
	PoolBlocksSticky  = PoolBlocksFamily.ShardedCounter("sticky")
	// PoolSteals counts work-steal operations performed by sticky
	// parallel-for runners that drained their own range.
	PoolSteals = Default.NewShardedCounter(
		"tess_pool_steals_total",
		"Work-steal operations by sticky parallel-for runners.").ShardedCounter()
	// PoolWorkerCPU is the CPU core each pool worker is pinned to, or
	// -1 while unpinned. Written ungated at (re)pin time so the
	// placement is correct whenever telemetry is enabled later.
	PoolWorkerCPU = Default.NewGauge(
		"tess_pool_worker_cpu",
		"CPU core the pool worker is pinned to (-1 when unpinned).",
		"worker")
	// PoolWorkersPinned is the number of workers currently pinned to a
	// dedicated CPU core.
	PoolWorkersPinned = Default.NewGauge(
		"tess_pool_workers_pinned",
		"Pool workers currently pinned to a CPU core.").Gauge()
)

// internal/core — the tessellation executors.
var (
	// StageDuration has one histogram per region kind: "stage" for the
	// expand/shrink stages as an aggregate, "diamond" for merged
	// B_d+B_0 regions, plus one "stage<i>" child per stage index so
	// per-stage grain is observable (divided by StageBlocks, the mean
	// wall time per block of each stage).
	StageDuration = Default.NewHistogramFamily(
		"tess_stage_duration_seconds",
		"Wall time of each tessellation parallel region, by region kind.",
		DurationBuckets, "kind")
	// StageBlocks counts blocks scheduled per region kind ("diamond",
	// "stage0".."stage<d>"); together with the per-stage StageDuration
	// children it yields mean wall time per block per stage.
	StageBlocks = Default.NewCounter(
		"tess_stage_blocks_total",
		"Tessellation blocks scheduled, by region stage kind.",
		"kind")
	// BlocksExecuted counts blocks scheduled across all regions.
	BlocksExecuted = Default.NewCounter(
		"tess_blocks_executed_total",
		"Tessellation blocks executed across all parallel regions.").Counter()
	// PointsUpdated counts grid point updates performed by the
	// tessellation executors. Sharded per worker: every block closure
	// adds its point count, and under high worker counts a single
	// cache line would ping-pong (ROADMAP item).
	PointsUpdated = Default.NewShardedCounter(
		"tess_points_updated_total",
		"Grid point updates performed by the tessellation executors.").ShardedCounter()
	// KernelCallsFamily counts stencil kernel invocations by dispatch
	// path: "row" for the per-row fallback kernels, "block" for the
	// fused block kernels that receive a whole clipped box. The ratio
	// shows how much of a run actually takes the fast path. Sharded per
	// worker like PointsUpdated.
	KernelCallsFamily = Default.NewShardedCounter(
		"tess_kernel_calls_total",
		"Stencil kernel invocations by the executors, by dispatch path.",
		"path")
	// KernelCallsRow / KernelCallsBlock / KernelCallsSIMD are the
	// cached per-path children of KernelCallsFamily ("simd" counts
	// whole-box calls into the 4-lane vector kernels, hand-written
	// AVX2 or codegen's auto-vectorizable closures).
	KernelCallsRow   = KernelCallsFamily.ShardedCounter("row")
	KernelCallsBlock = KernelCallsFamily.ShardedCounter("block")
	KernelCallsSIMD  = KernelCallsFamily.ShardedCounter("simd")
	// KernelSIMDFallbacks counts runs (and SetKernelPath calls) that
	// requested the simd path on a platform without vector kernels and
	// were degraded to the block path. A nonzero value on an amd64
	// deployment means the fleet is not getting the vector speedup it
	// asked for.
	KernelSIMDFallbacks = Default.NewCounter(
		"tess_kernel_simd_fallbacks_total",
		"Runs that requested the simd kernel path but degraded to block (no CPU/platform support).").Counter()
)

// internal/core + internal/grid — steady-state reuse caches. Serving
// workloads re-run one (spec, N, BT, Big, coarsening) shape millions
// of times; these counters prove the hot path recomputes no schedule
// and allocates no grid buffer after warmup.
var (
	// SchedCacheFamily counts schedule-cache lookups by result; a
	// steady-state miss rate above zero means schedules are being
	// rebuilt on the serving path.
	SchedCacheFamily = Default.NewCounter(
		"tess_sched_cache_lookups_total",
		"Precomputed-schedule cache lookups, by result.",
		"result")
	// SchedCacheHit / SchedCacheMiss are the cached per-result
	// children of SchedCacheFamily.
	SchedCacheHit  = SchedCacheFamily.Counter("hit")
	SchedCacheMiss = SchedCacheFamily.Counter("miss")
	// ArenaCheckoutFamily counts grid-buffer arena checkouts by result
	// ("hit" = buffer reused, "miss" = fresh allocation).
	ArenaCheckoutFamily = Default.NewCounter(
		"tess_arena_checkouts_total",
		"Grid-buffer arena checkouts, by result (hit = reused buffer).",
		"result")
	// ArenaHit / ArenaMiss are the cached per-result children of
	// ArenaCheckoutFamily.
	ArenaHit  = ArenaCheckoutFamily.Counter("hit")
	ArenaMiss = ArenaCheckoutFamily.Counter("miss")
)

// internal/server — the multi-tenant engine server (tessserve).
var (
	// JobsAccepted counts jobs admitted to the queue, by tenant.
	JobsAccepted = Default.NewCounter(
		"tess_jobs_accepted_total",
		"Simulation jobs admitted to the tessserve queue, by tenant.",
		"tenant")
	// JobsRejected counts jobs refused admission, by tenant and reason
	// ("queue_full", "draining", "invalid", "too_large").
	JobsRejected = Default.NewCounter(
		"tess_jobs_rejected_total",
		"Simulation jobs refused admission, by tenant and reason.",
		"tenant", "reason")
	// JobsCompleted counts finished jobs, by tenant and status
	// ("ok" or "error").
	JobsCompleted = Default.NewCounter(
		"tess_jobs_completed_total",
		"Simulation jobs finished, by tenant and status.",
		"tenant", "status")
	// JobsQueueDepth is the number of jobs waiting in the bounded
	// queue (admitted, not yet picked up by an engine). Both halves of
	// the pairing bypass the enable gate so the gauge cannot drift if
	// telemetry is toggled mid-job.
	JobsQueueDepth = Default.NewGauge(
		"tess_jobs_queue_depth",
		"Jobs waiting in the tessserve admission queue.").Gauge()
	// JobDurationSeconds is the execution wall time of each job
	// (engine pickup to completion), by tenant.
	JobDurationSeconds = Default.NewHistogramFamily(
		"tess_jobs_duration_seconds",
		"Execution wall time of each tessserve job, by tenant.",
		DurationBuckets, "tenant")
	// JobQueueSeconds is the time each job waited in the queue before
	// an engine picked it up.
	JobQueueSeconds = Default.NewHistogramFamily(
		"tess_jobs_queue_seconds",
		"Queue wait of each tessserve job, admission to engine pickup.",
		DurationBuckets).Histogram()
	// ServeEnginesBusy is the number of engines currently executing a
	// job; paired updates bypass the enable gate like JobsQueueDepth.
	ServeEnginesBusy = Default.NewGauge(
		"tess_serve_engines_busy",
		"tessserve engines currently executing a job.").Gauge()
	// JobsCanceled counts jobs that reached the canceled terminal state
	// (client disconnect before or during execution), by tenant.
	JobsCanceled = Default.NewCounter(
		"tess_jobs_canceled_total",
		"Simulation jobs canceled by client disconnect, by tenant.",
		"tenant")
	// ResultCacheFamily counts deterministic-result-cache lookups by
	// result; a hit serves the checksum without touching an engine.
	ResultCacheFamily = Default.NewCounter(
		"tess_result_cache_lookups_total",
		"Deterministic result-cache lookups, by result (hit = no execution).",
		"result")
	// ResultCacheHit / ResultCacheMiss are the cached per-result
	// children of ResultCacheFamily.
	ResultCacheHit  = ResultCacheFamily.Counter("hit")
	ResultCacheMiss = ResultCacheFamily.Counter("miss")
	// ResultCacheEntries is the number of checksums currently cached.
	ResultCacheEntries = Default.NewGauge(
		"tess_result_cache_entries",
		"Entries in the deterministic result cache.").Gauge()
	// ResultCacheEvictions counts LRU/byte-cap evictions from the
	// result cache.
	ResultCacheEvictions = Default.NewCounter(
		"tess_result_cache_evictions_total",
		"Deterministic result-cache entries evicted (LRU or byte cap).").Counter()
)

// internal/dist — distributed-memory exchange.
var (
	// DistBytes counts exchanged payload bytes by direction and peer.
	DistBytes = Default.NewCounter(
		"tess_dist_bytes_total",
		"Halo-exchange payload bytes, by direction (send/recv) and peer rank.",
		"dir", "peer")
	// DistMessages counts exchanged messages by direction and peer.
	DistMessages = Default.NewCounter(
		"tess_dist_messages_total",
		"Halo-exchange messages, by direction (send/recv) and peer rank.",
		"dir", "peer")
	// DistExchangeSeconds is the wall time a rank spends blocked on
	// each per-region halo exchange: the whole exchange on the
	// synchronous path, only the un-hidden remainder (the wait after
	// interior blocks finish) on the overlapped path.
	DistExchangeSeconds = Default.NewHistogramFamily(
		"tess_dist_exchange_seconds",
		"Wall time blocked on each per-region halo exchange (overlap hides part of it).",
		DurationBuckets).Histogram()
	// DistPeerExchangeSeconds is the wall time of each single-neighbour
	// strip swap (send + recv of both parity buffers), by peer rank.
	// This is the latency signal autotune.SearchDist folds into its
	// trial objective: higher measured per-exchange cost pushes the
	// search toward taller BT (fewer exchanges per step).
	DistPeerExchangeSeconds = Default.NewHistogramFamily(
		"tess_dist_peer_exchange_seconds",
		"Wall time of each single-neighbour strip swap, by peer rank.",
		DurationBuckets, "peer")
	// DistExchangesOverlapped counts halo exchanges executed on the
	// overlapped path (launched asynchronously under interior blocks).
	DistExchangesOverlapped = Default.NewCounter(
		"tess_dist_exchange_overlapped_total",
		"Halo exchanges executed on the overlapped (hidden-latency) path.").Counter()
)

// internal/bench — the measurement harness, so stencilbench runs are
// scrapeable in flight.
var (
	benchLabels = []string{"workload", "scheme", "threads"}
	// BenchSeconds is the wall time of the latest finished measurement.
	BenchSeconds = Default.NewGauge(
		"tess_bench_seconds",
		"Wall time of the most recent benchmark measurement.", benchLabels...)
	// BenchMUpdates is the throughput of the latest finished
	// measurement in millions of point updates per second.
	BenchMUpdates = Default.NewGauge(
		"tess_bench_mupdates",
		"Throughput of the most recent benchmark measurement, in million point updates/s.", benchLabels...)
	// BenchGFlops is the floating-point throughput of the latest
	// finished measurement.
	BenchGFlops = Default.NewGauge(
		"tess_bench_gflops",
		"Floating-point throughput of the most recent benchmark measurement, in GFLOP/s.", benchLabels...)
	// BenchMeasurements counts finished benchmark measurements.
	BenchMeasurements = Default.NewCounter(
		"tess_bench_measurements_total",
		"Benchmark measurements completed.").Counter()
)
