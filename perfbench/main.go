// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, with every input generated from a seed,
// checks every result bitwise against the internal/naive oracle, and
// prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload heat3d-fig11a --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans the
// benchmark records around its calls into each layer are written to
// .bench_build/traces/trace-<workload>-<seed>.json. The line before
// it is a report: host context, the sample count behind every median
// and percentile, and the within-run spread of solve times or job
// latencies. The command exits non-zero, after printing, when any
// output was wrong.
//
// The benchmark measures the layers from outside: it times calls into
// the public functions of tessellate and the internal packages from its
// own files and changes none of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tessellate/internal/telemetry"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// workload's untraced run. On the compute workloads a "job" is one
// timed solve.
var endToEnd = []metricDef{
	{"mlups", "MLUP/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_s", "s"},
	{"latency_p99_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics of a traced run.
var perLayer = []metricDef{
	{"stencil.kernel_gflops", "GFLOP/s"},
	{"stencil.flops_per_byte", "flop/B"},
	{"model.bytes_per_update", "B"},
	{"mem.stream_gbs", "GB/s"},
	{"core.schedule_build_s", "s"},
	{"core.regions", "count"},
	{"core.block_visits", "count"},
	{"core.exec_s", "s"},
	{"core.nonkernel_frac", "fraction"},
	{"naive.mlups", "MLUP/s"},
	{"core.speedup_vs_naive", "ratio"},
	{"grid.mask_mixed_frac", "fraction"},
	{"grid.mask_countbox_ns", "ns"},
	{"grid.arena_checkout_us", "us"},
	{"par.dispatch_us", "us"},
	{"par.barrier_share", "fraction"},
	{"par.scaling_eff", "fraction"},
	{"server.queue_s_p50", "s"},
	{"server.run_s_p50", "s"},
	{"server.overhead_s_p50", "s"},
	{"server.cache_hit_ratio", "fraction"},
	{"server.schedule_hit_ratio", "fraction"},
	{"server.reject_ratio", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"heat3d-fig11a": func(r *run) error { return runCompute(r, heat3dFig11a(256)) },
	"rk2-lshape":    func(r *run) error { return runCompute(r, rk2LShape(1024)) },
	"serve-sweep":   runServeSweep,
}

// run is one invocation's state: its inputs, the operations it
// checked, and what it measured.
type run struct {
	seed    int64
	seconds float64
	trace   bool

	// tracer receives the benchmark's spans while tracing is on; nil
	// (record nothing) otherwise.
	tracer *telemetry.Tracer

	attempted, failed int
	metrics           map[string]float64
	report            map[string]any
}

func newRun(seed int64, seconds float64, trace bool) *run {
	return &run{
		seed:    seed,
		seconds: seconds,
		trace:   trace,
		metrics: make(map[string]float64),
		report:  make(map[string]any),
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note records report context (sample counts, tiers, spreads).
func (r *run) note(key string, v any) { r.report[key] = v }

// check counts one checked operation and reports a failure on stderr.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// span records a benchmark span that began at start on lane tid (0
// for the main goroutine, the client number for serving clients), when
// tracing.
func (r *run) span(name string, tid int, start time.Time) {
	if r.tracer != nil {
		r.tracer.RecordSpan(telemetry.Event{Name: name, Cat: "perfbench", TID: tid, Phase: -1, Stage: -1}, start)
	}
}

// startTracing turns the tracer and the program's telemetry on (the
// traced phase of a --trace 1 run); stopTracing turns both off.
func (r *run) startTracing(t *telemetry.Tracer) {
	telemetry.Enable()
	r.tracer = t
}

func (r *run) stopTracing() {
	telemetry.Disable()
	r.tracer = nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line with exactly the metrics in defs; a
// missing one is a benchmark bug.
func (r *run) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run (heat3d-fig11a, rk2-lshape, serve-sweep)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "length of the measurement window")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (heat3d-fig11a|rk2-lshape|serve-sweep), --seconds > 0, --trace 0|1\n")
		return 2
	}
	// Compute workloads run with the program's telemetry off; a traced
	// run turns it on only for its traced phase.
	telemetry.Disable()
	r := newRun(*seed, *seconds, *traceFlag == 1)
	tracer := telemetry.NewTracer(1 << 16)
	if r.trace {
		r.startTracing(tracer)
	}
	start := time.Now()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.set("peak_rss_mb", peakRSSMiB())
	defs := endToEnd
	if r.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := writeTrace(tracer, path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.note("trace_file", path)
	}
	res, err := r.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.note("workload", *name)
	r.note("seed", *seed)
	r.note("seconds", *seconds)
	r.note("wall_s", time.Since(start).Seconds())
	r.note("host", hostContext())
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": r.report}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTrace(t *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
