package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"tessellate/internal/telemetry"
)

// regionSpan accumulates observability data for one parallel region.
// Executors create one per region only while telemetry is enabled, so
// the disabled hot path pays a single branch per region.
type regionSpan struct {
	start  time.Time
	points int64 // atomically accumulated by block closures
}

// beginRegion starts a span when telemetry is enabled, else returns
// nil; all methods are nil-safe.
func beginRegion() *regionSpan {
	if !telemetry.Enabled() {
		return nil
	}
	return &regionSpan{start: time.Now()}
}

// addPoints accumulates point updates; safe for concurrent block
// closures and on a nil span. worker is the pool worker id running the
// closure: the global points counter is sharded per worker so the hot
// path never bounces a shared cache line between cores.
func (sp *regionSpan) addPoints(worker int, n int64) {
	if sp == nil {
		return
	}
	atomic.AddInt64(&sp.points, n)
	telemetry.PointsUpdated.Add(worker, uint64(n))
}

// addKernelCalls accumulates kernel invocation counts by dispatch
// path; safe on a nil span. Like addPoints it is sharded per pool
// worker so block closures never contend on a shared cache line.
func (sp *regionSpan) addKernelCalls(worker int, row, block, simd int64) {
	if sp == nil {
		return
	}
	if row > 0 {
		telemetry.KernelCallsRow.Add(worker, uint64(row))
	}
	if block > 0 {
		telemetry.KernelCallsBlock.Add(worker, uint64(block))
	}
	if simd > 0 {
		telemetry.KernelCallsSIMD.Add(worker, uint64(simd))
	}
}

// end records the region's metrics and trace event. index is the
// region's position in the run's schedule and blocks the number of its
// blocks the run visited.
func (sp *regionSpan) end(cfg *Config, r *Region, index, blocks int) {
	if sp == nil {
		return
	}
	kind := "stage"
	if r.Diamond {
		kind = "diamond"
	}
	dur := time.Since(sp.start).Seconds()
	telemetry.StageDuration.Histogram(kind).Observe(dur)
	if !r.Diamond {
		// Per-stage child in addition to the "stage" aggregate; diamond
		// regions already have a kind of their own.
		telemetry.StageDuration.Histogram(stageKind(r.Stage)).Observe(dur)
	}
	telemetry.StageBlocks.Counter(regionKind(r)).Add(uint64(blocks))
	telemetry.BlocksExecuted.Add(uint64(blocks))
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name:   kind,
		Cat:    "core",
		Phase:  int64(r.Ref / cfg.BT),
		Stage:  int64(index),
		Blocks: int64(blocks),
		Points: sp.points,
	}, sp.start)
}

// stageLabels caches the per-stage kind labels for the dimensions the
// executors support, so the hot path never formats strings.
var stageLabels = [...]string{"stage0", "stage1", "stage2", "stage3", "stage4", "stage5", "stage6", "stage7", "stage8"}

// stageKind returns the telemetry kind label of stage index i.
func stageKind(i int) string {
	if i >= 0 && i < len(stageLabels) {
		return stageLabels[i]
	}
	return "stage" + strconv.Itoa(i)
}

// regionKind returns the telemetry kind label of a region: "diamond"
// for merged regions, "stage<i>" otherwise.
func regionKind(r *Region) string {
	if r.Diamond {
		return "diamond"
	}
	return stageKind(r.Stage)
}

// boxVolume returns the point count of the axis-aligned box [lo, hi).
func boxVolume(lo, hi []int) int64 {
	v := int64(1)
	for k := range lo {
		v *= int64(hi[k] - lo[k])
	}
	return v
}
