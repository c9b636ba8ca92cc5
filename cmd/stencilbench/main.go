// Command stencilbench regenerates the paper's evaluation: Table 4
// workloads, the scaling figures (8, 9, 10, 11a, 11b) and the Heat-3D
// memory-performance figure (12), plus the comparisons that claim a
// ratio: the ablation of the implementation's design choices, kernel
// dispatch paths, dispatch coarsening, placement, distributed halo
// exchange, fused pipelines and masked domains.
//
// Usage:
//
//	stencilbench -list                 # print Table 4
//	stencilbench -fig 10 -scale 16     # regenerate Figure 10 at 1/16 scale
//	stencilbench -fig all -scale 32
//	stencilbench -compare ablation     # merging / blocks / tile-height / overlapped ablation
//	stencilbench -compare all -json BENCH_LEDGER.json   # every comparison, one ledger
//	stencilbench -concurrency          # barriers & parallelism per scheme
//	stencilbench -paper -fig 8         # full paper problem sizes (hours!)
//	stencilbench -threads 1,2,4,8      # thread sweep points
//	stencilbench -fig 10 -coarsen-per-stage 8,2   # fixed per-stage coarsening vector
//
// -compare runs one experiment of bench.Experiments by name (ablation,
// kernels, coarsening, placement, dist, pipeline, mask) or all of
// them. Each case runs a checked warm-up per variant, then
// bench.Rounds rounds that rotate which variant goes first; every
// round's checksums must match the case's reference variant bitwise,
// or the run fails. Rows report the median and interquartile range of
// the rounds and the ratio to the reference; -json writes them with
// the host and commit as a ledger (the schema of BENCH_LEDGER.json).
//
// Scheduling & placement (see DESIGN.md §Scheduling & placement):
//
//	stencilbench -fig 10 -sticky -pin       # sticky block→worker mapping on pinned workers
//	stencilbench -compare placement         # naive vs dynamic vs sticky(+pin)
//
// Observability (see DESIGN.md §Observability):
//
//	stencilbench -fig 10 -telemetry :8080   # serve /metrics, /trace, /debug/pprof
//	stencilbench -fig 11a -trace out.json   # dump a Chrome trace of the run
//
// Flag matrix — one mode per invocation, and the modifiers each mode
// accepts:
//
//	mode          | -scale/-paper  -threads  -csv  -json  -pin/-sticky  -coarsen-per-stage  -telemetry/-trace
//	-list         |      no           no      no     no        no               no                 no
//	-fig <one>    |     yes          yes     yes     no       yes              yes                yes
//	-fig all      |     yes          yes      no     no       yes              yes                yes
//	-compare      |     yes          yes      no    yes        no               no                yes
//	-concurrency  |     yes           no      no     no        no               no                yes
//
// -csv needs a single -fig to name the measurement sweep it exports;
// combining it with -list, -compare, -concurrency or -fig all is an
// error rather than a silent no-op.
// -pin/-sticky apply the placement knobs, and -coarsen-per-stage a
// fixed per-stage dispatch coarsening vector (comma-separated factors,
// entry i for stage-i regions; see Options.CoarsenPerStage), to every
// measurement of the run. -compare's case tables set placement and
// coarsening per variant themselves, so those knobs are rejected
// there. -compare takes the last -threads entry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"tessellate"
	"tessellate/internal/bench"
	"tessellate/internal/telemetry"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate: 8, 9, 10, 11a, 11b, 12 or all")
		scale   = flag.Int("scale", 16, "problem size divisor (1 = paper size)")
		paper   = flag.Bool("paper", false, "use full paper problem sizes (overrides -scale)")
		threads = flag.String("threads", "", "comma-separated thread counts (default 1..GOMAXPROCS doubling)")
		list    = flag.Bool("list", false, "print the Table 4 workloads and exit")
		compare = flag.String("compare", "", "run a comparison experiment (ablation, kernels, coarsening, placement, dist, pipeline, mask) or all")
		conc    = flag.Bool("concurrency", false, "print the concurrency/synchronization profile of the schemes")
		csvOut  = flag.String("csv", "", "write a figure's measurements as CSV to this file (requires a single -fig)")
		pin     = flag.Bool("pin", false, "pin pool workers to CPU cores (linux; degrades to a no-op elsewhere)")
		sticky  = flag.Bool("sticky", false, "use the sticky (static) block→worker mapping with work-stealing")
		coarsen = flag.String("coarsen-per-stage", "", "comma-separated per-stage dispatch coarsening factors applied to tessellation measurements (entry i = stage i)")
		jsonOut = flag.String("json", "", "-compare: also write the rows, host and commit as a JSON ledger to this file")
		telAddr = flag.String("telemetry", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. :8080) and enable instrumentation")
		traceTo = flag.String("trace", "", "write a Chrome trace_event JSON dump of the run to this file (enables instrumentation)")
	)
	flag.Parse()

	if *paper {
		*scale = 1
	}
	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	if *csvOut != "" && (*fig == "" || *fig == "all" || *list || *compare != "" || *conc) {
		fatal(fmt.Errorf("-csv requires a single -fig (8, 9, 10, 11a, 11b or 12); it cannot be combined with -list, -compare, -concurrency or -fig all"))
	}
	if *compare != "" && (*pin || *sticky || *coarsen != "") {
		fatal(fmt.Errorf("-compare sets placement and coarsening per variant; -pin, -sticky and -coarsen-per-stage cannot be combined with it"))
	}
	if *jsonOut != "" && *compare == "" {
		fatal(fmt.Errorf("-json is only meaningful with -compare"))
	}
	if *coarsen != "" {
		per, err := parseCoarsening(*coarsen)
		if err != nil {
			fatal(err)
		}
		bench.SetCoarsening(per)
	}
	bench.SetPlacement(bench.Placement{Sticky: *sticky, Pin: *pin, FirstTouch: *sticky || *pin})

	if *telAddr != "" || *traceTo != "" {
		telemetry.Enable()
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics /trace /debug/pprof\n", srv.Addr())
	}

	switch {
	case *list:
		printTable4()
	case *conc:
		for _, fig := range []string{"10", "11a"} {
			for _, w := range bench.ByFigure(fig) {
				if err := bench.PrintProfiles(os.Stdout, w.Scaled(*scale)); err != nil {
					fatal(err)
				}
				fmt.Println()
			}
		}
	case *compare != "":
		if err := runCompare(os.Stdout, *compare, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *fig == "all":
		for _, f := range []string{"8", "9", "10", "11a", "11b", "12"} {
			if err := bench.RunFigure(os.Stdout, f, *scale, ths); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *fig != "" && *csvOut != "":
		var ms []bench.Measurement
		for _, w := range bench.ByFigure(*fig) {
			sweep, err := bench.ThreadSweep(w.Scaled(*scale), bench.FigureSchemes(*fig), ths)
			if err != nil {
				fatal(err)
			}
			ms = append(ms, sweep...)
		}
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, ms); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(ms), *csvOut)
	case *fig != "":
		if err := bench.RunFigure(os.Stdout, *fig, *scale, ths); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.DefaultTracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceTo)
	}
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		max := runtime.GOMAXPROCS(0)
		out := []int{1}
		for t := 2; t <= max; t *= 2 {
			out = append(out, t)
		}
		return out, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("stencilbench: bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseCoarsening(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > tessellate.MaxCoarsenFactor {
			return nil, fmt.Errorf("stencilbench: bad coarsening factor %q (want 1..%d)", f, tessellate.MaxCoarsenFactor)
		}
		out = append(out, v)
	}
	return out, nil
}

// runCompare runs the named experiment, or every one for "all",
// printing one table per experiment, and writes the ledger as JSON to
// jsonPath unless it is empty.
func runCompare(w io.Writer, name string, scale, threads int, jsonPath string) error {
	var exps []bench.Experiment
	var names []string
	for _, e := range bench.Experiments {
		if name == "all" || name == e.Name {
			exps = append(exps, e)
		}
		names = append(names, e.Name)
	}
	if len(exps) == 0 {
		return fmt.Errorf("unknown -compare %q (want all, %s)", name, strings.Join(names, ", "))
	}
	led := bench.NewLedger(scale, threads)
	fmt.Fprintf(w, "commit %s, %s, GOMAXPROCS %d, cpu features %s\n",
		led.Commit, led.Host.GoVersion, led.Host.GOMAXPROCS, led.Host.CPUFeatures)
	for _, e := range exps {
		rows, err := e.Run(scale, threads, bench.Rounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n# %s: 1/%d scale, %d threads, median and IQR of %d rounds, checksums bitwise-equal to the first variant\n",
			e.Name, scale, threads, bench.Rounds)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tvariant\tmedian s\tIQR s\tMLUP/s\tratio")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.1f\t%.3fx\n",
				r.Workload, r.Variant, r.Seconds, r.SecondsIQR, r.MUpdates, r.Ratio)
		}
		tw.Flush()
		led.Rows = append(led.Rows, rows...)
	}
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(led); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %d rows to %s\n", len(led.Rows), jsonPath)
	return nil
}

func printTable4() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tkernel\tproblem size\tour blocking (Big x bt)\tPluto blocking (BX x 2bt)")
	for _, w := range bench.Table4 {
		fmt.Fprintf(tw, "%s\t%s\t%vx%d\t%vx%d\t%dx%d\n",
			w.Figure, w.Kernel, w.N, w.Steps, w.TessBig, w.TessBT, w.DiamondBX, 2*w.DiamondBT)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stencilbench:", err)
	os.Exit(1)
}
