package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"tessellate/internal/bench"
)

// runComparePipelines drives bench.ComparePipelines, renders the
// human-readable table (median of reseeded repeats after a warm-up),
// and optionally writes the JSON report (BENCH_PIPELINE.json schema).
// Checksums are enforced bitwise between the naive and tessellated
// runs of every repeat inside the bench layer.
func runComparePipelines(w io.Writer, scale, threads int, jsonPath string) error {
	fmt.Fprintf(w, "multi-stage pipeline comparison: rk2/split/leapfrog over heat-2d, 1/%d scale, %d threads\n", scale, threads)
	rep, err := bench.ComparePipelines(scale, threads)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tstages\tscheme\tmedian s\tIQR s\tMLUP/s\tvs naive")
	for _, r := range rep.Results {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4f\t%.4f\t%.1f\t%.3fx\n",
			r.Workload, r.Stages, r.Scheme, r.Seconds, r.SecondsIQR, r.MUpdates, r.SpeedupVsNaive)
	}
	tw.Flush()
	return writeJSONReport(w, jsonPath, "pipeline", rep)
}

// runCompareMasks drives bench.CompareMasks, renders the table, and
// optionally writes the JSON report (BENCH_MASK.json schema).
func runCompareMasks(w io.Writer, scale, threads int, jsonPath string) error {
	fmt.Fprintf(w, "masked-domain comparison: lshape/obstacle over heat-2d + heat-3d, 1/%d scale, %d threads\n", scale, threads)
	rep, err := bench.CompareMasks(scale, threads)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmask\tactive\tscheme\tseconds\tMLUP/s\tvs naive")
	for _, r := range rep.Results {
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%s\t%.3f\t%.1f\t%.3fx\n",
			r.Workload, r.Mask, 100*r.ActiveFraction, r.Scheme, r.Seconds, r.MUpdates, r.SpeedupVsNaive)
	}
	tw.Flush()
	return writeJSONReport(w, jsonPath, "mask", rep)
}

// writeJSONReport writes rep as indented JSON to jsonPath (no-op when
// empty), logging the destination like the other compare modes.
func writeJSONReport(w io.Writer, jsonPath, kind string, rep any) error {
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s report to %s\n", kind, jsonPath)
	return nil
}
