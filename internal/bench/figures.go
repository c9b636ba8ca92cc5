package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"tessellate"
)

// FigureSchemes lists the schemes each paper figure compares. "pluto"
// is the diamond scheme, "pochoir" the cache-oblivious one, "girih" the
// MWD scheme; our labels use the algorithm names.
func FigureSchemes(fig string) []tessellate.Scheme {
	switch fig {
	case "11a", "12":
		// Fig 11a and 12 include Girih for the 3d7p stencil.
		return []tessellate.Scheme{tessellate.Tessellation, tessellate.Diamond, tessellate.Oblivious, tessellate.MWD}
	default:
		return []tessellate.Scheme{tessellate.Tessellation, tessellate.Diamond, tessellate.Oblivious}
	}
}

// RunFigure regenerates one figure of the paper's evaluation: it runs
// every workload of the figure under every compared scheme across the
// given thread counts (scaled down by scale) and writes the series as a
// table. Fig. 12 additionally replays the schemes through the cache
// model and reports transfer volume and effective bandwidth.
func RunFigure(out io.Writer, fig string, scale int, threads []int) error {
	workloads := ByFigure(fig)
	if len(workloads) == 0 {
		return fmt.Errorf("bench: unknown figure %q (valid: 8, 9, 10, 11a, 11b, 12)", fig)
	}
	for i, w := range workloads {
		workloads[i] = w.Scaled(scale)
	}
	return runFigure(out, fig, scale, workloads, threads)
}

// runFigure runs figure fig's workloads, already scaled by 1/scale.
func runFigure(out io.Writer, fig string, scale int, workloads []Workload, threads []int) error {
	schemes := FigureSchemes(fig)
	for _, sw := range workloads {
		fmt.Fprintf(out, "# Figure %s: %s (scaled 1/%d: N=%v T=%d)\n", fig, sw.Kernel, scale, sw.N, sw.Steps)

		if fig == "12" {
			if err := runFig12(out, sw, schemes, threads); err != nil {
				return err
			}
			continue
		}

		ms, err := ThreadSweep(sw, schemes, threads)
		if err != nil {
			return err
		}
		if err := checkAgreement(ms); err != nil {
			return err
		}
		PrintSweep(out, ms)
	}
	return nil
}

// runFig12 reproduces the Heat-3D memory-performance figure: transfer
// volume per scheme from the cache model, and effective bandwidth
// (volume / measured runtime).
func runFig12(out io.Writer, w Workload, schemes []tessellate.Scheme, threads []int) error {
	// Scale the LLC capacity with the working set, preserving the
	// paper's ratio of ~9x working set to 30 MB cache for 256^3.
	working := 2 * w.Points() * 8
	cacheBytes := 1 << 16
	for int64(cacheBytes)*8 < working {
		cacheBytes <<= 1
	}
	// Tiles must scale with the cache model, exactly as the paper's
	// 24x24x12 blocking targets its 30 MB LLC: a block's space-time
	// working set should roughly fill the cache, and the temporal depth
	// BT should exceed d so temporal reuse pays (see DESIGN.md).
	big := 8
	for cand := big + 4; 16*cand*cand*cand <= cacheBytes; cand += 4 {
		big = cand
	}
	bt := big / 4
	w.TessBT, w.TessBig = bt, []int{big, big, big}
	w.DiamondBX, w.DiamondBT = big/2, bt
	w.SkewBT, w.SkewBX = bt, []int{big / 2, big / 2, big / 2}
	maxThreads := threads[len(threads)-1]
	// Include naive for reference; the paper's text discusses it.
	all := append([]tessellate.Scheme{tessellate.Naive}, schemes...)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme\ttraffic(MB)\tbytes/update\thit-rate\truntime(s)\tbandwidth(GB/s)\n")
	for _, sc := range all {
		tr, err := MeasureTraffic(w, sc, cacheBytes)
		if err != nil {
			return err
		}
		m, err := Run(w, sc, maxThreads)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.3f\t%.4f\t%.3f\t%.2f\n",
			tr.Scheme, float64(tr.Bytes)/1e6, tr.BytesPerPoint, tr.HitRate,
			m.Seconds, float64(tr.Bytes)/m.Seconds/1e9)
	}
	fmt.Fprintf(tw, "(cache model: %d KiB, 64 B lines, 16-way LRU)\n", cacheBytes/1024)
	return tw.Flush()
}

// checkAgreement demands that all schemes produced the same checksum at
// every thread count — the harness-level version of the repository's
// bitwise-equality invariant.
func checkAgreement(ms []Measurement) error {
	byKey := map[string]float64{}
	for _, m := range ms {
		key := m.Workload
		if ref, ok := byKey[key]; ok {
			if m.Checksum != ref {
				return fmt.Errorf("bench: %s/%s checksum %v != reference %v", m.Workload, m.Scheme, m.Checksum, ref)
			}
		} else {
			byKey[key] = m.Checksum
		}
	}
	return nil
}

// PrintSweep renders measurements as a thread-count x scheme table of
// MUpdates/s, the layout of the paper's scaling figures.
func PrintSweep(out io.Writer, ms []Measurement) {
	schemes := []string{}
	threads := []int{}
	seenS := map[string]bool{}
	seenT := map[int]bool{}
	val := map[string]map[int]float64{}
	for _, m := range ms {
		if !seenS[m.Scheme] {
			seenS[m.Scheme] = true
			schemes = append(schemes, m.Scheme)
			val[m.Scheme] = map[int]float64{}
		}
		if !seenT[m.Threads] {
			seenT[m.Threads] = true
			threads = append(threads, m.Threads)
		}
		val[m.Scheme][m.Threads] = m.MUpdates
	}
	sort.Ints(threads)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "threads")
	for _, s := range schemes {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw, "\t(MUpdates/s)")
	for _, t := range threads {
		fmt.Fprintf(tw, "%d", t)
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%.1f", val[s][t])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
