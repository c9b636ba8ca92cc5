// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure. Problem sizes are scaled (relative scheme ordering,
// not absolute throughput, is the reproduction target; run
// cmd/stencilbench -paper for Table 4 sizes). Each benchmark reports
// Mupd/s — millions of point updates per second, the unit of the
// paper's figures.
package tessellate_test

import (
	"fmt"
	"testing"

	"tessellate"
	"tessellate/internal/bench"
)

// benchScale shrinks Table 4 workloads to testing.B-friendly sizes.
const (
	benchScale1D = 64
	benchScale2D = 64
	benchScale3D = 16 // 3D extents divide by sqrt(16): 64³
)

func runWorkload(b *testing.B, w bench.Workload, schemes []tessellate.Scheme) {
	b.Helper()
	for _, sc := range schemes {
		b.Run(sc.String(), func(b *testing.B) {
			var updates float64
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(w, sc, 0)
				if err != nil {
					b.Fatal(err)
				}
				updates += float64(w.Updates())
				_ = m
			}
			b.ReportMetric(updates/b.Elapsed().Seconds()/1e6, "Mupd/s")
		})
	}
}

func figWorkload(b *testing.B, fig, kernel string, scale int) bench.Workload {
	b.Helper()
	for _, w := range bench.ByFigure(fig) {
		if w.Kernel == kernel {
			return w.Scaled(scale)
		}
	}
	b.Fatalf("no workload %s in figure %s", kernel, fig)
	return bench.Workload{}
}

// Figure 8: 1D stencils (Heat-1D 3-point and 1d5p), tessellation vs
// diamond (Pluto) vs cache-oblivious (Pochoir).
func BenchmarkFig8Heat1D(b *testing.B) {
	runWorkload(b, figWorkload(b, "8", "heat-1d", benchScale1D), bench.FigureSchemes("8"))
}

func BenchmarkFig8P1D5(b *testing.B) {
	runWorkload(b, figWorkload(b, "8", "1d5p", benchScale1D), bench.FigureSchemes("8"))
}

// Figure 9: Game of Life.
func BenchmarkFig9Life(b *testing.B) {
	runWorkload(b, figWorkload(b, "9", "game-of-life", benchScale2D), bench.FigureSchemes("9"))
}

// Figure 10: 2D stencils.
func BenchmarkFig10Heat2D(b *testing.B) {
	runWorkload(b, figWorkload(b, "10", "heat-2d", benchScale2D), bench.FigureSchemes("10"))
}

func BenchmarkFig10Box2D9(b *testing.B) {
	runWorkload(b, figWorkload(b, "10", "2d9p", benchScale2D), bench.FigureSchemes("10"))
}

// Figure 11a: Heat-3D (3d7p), including the Girih-like MWD scheme.
func BenchmarkFig11aHeat3D(b *testing.B) {
	runWorkload(b, figWorkload(b, "11a", "heat-3d", benchScale3D), bench.FigureSchemes("11a"))
}

// Figure 11b: 3d27p, the headline result (paper: up to 12% over the
// best existing scheme).
func BenchmarkFig11bBox3D27(b *testing.B) {
	runWorkload(b, figWorkload(b, "11b", "3d27p", benchScale3D), bench.FigureSchemes("11b"))
}

// Figure 12: Heat-3D memory transfer volume, replayed through the cache
// model (bytes per point update reported as the metric).
func BenchmarkFig12Traffic(b *testing.B) {
	w := figWorkload(b, "12", "heat-3d", 8)
	const cacheBytes = 1 << 17 // 128 KiB vs the 512 KiB scaled working set
	// Fit tiles to the cache model, as the paper's blocking targets its
	// LLC (same rule as the Fig. 12 runner in internal/bench).
	big := 8
	for cand := big + 4; 16*cand*cand*cand <= cacheBytes; cand += 4 {
		big = cand
	}
	w.TessBT, w.TessBig = big/4, []int{big, big, big}
	w.DiamondBX, w.DiamondBT = big/2, big/4
	w.SkewBT, w.SkewBX = big/4, []int{big / 2, big / 2, big / 2}
	for _, sc := range append([]tessellate.Scheme{tessellate.Naive}, bench.FigureSchemes("12")...) {
		b.Run(sc.String(), func(b *testing.B) {
			var bytesPerUpdate float64
			for i := 0; i < b.N; i++ {
				tr, err := bench.MeasureTraffic(w, sc, cacheBytes)
				if err != nil {
					b.Fatal(err)
				}
				bytesPerUpdate = tr.BytesPerPoint
			}
			b.ReportMetric(bytesPerUpdate, "DRAMbytes/upd")
		})
	}
}

// Ablations: the design knobs of §4.

// BenchmarkAblationMerge compares the merged (d syncs/phase) and
// unmerged (d+1 syncs/phase) schedules (§4.3).
func BenchmarkAblationMerge(b *testing.B) {
	w := figWorkload(b, "10", "heat-2d", benchScale2D)
	spec, _ := tessellate.StencilByName(w.Kernel)
	for _, variant := range []struct {
		name    string
		noMerge bool
	}{{"merged", false}, {"unmerged", true}} {
		b.Run(variant.name, func(b *testing.B) {
			eng := tessellate.NewEngine(0)
			defer eng.Close()
			for i := 0; i < b.N; i++ {
				g := tessellate.NewGrid2D(w.N[0], w.N[1], 1, 1)
				opt := tessellate.Options{TimeTile: w.TessBT, Block: w.TessBig, NoMerge: variant.noMerge}
				if err := eng.Run2D(g, spec, w.Steps, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Updates())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupd/s")
		})
	}
}

// BenchmarkAblationCoarsening compares asymmetric (coarsened, §4.2)
// with uniform block sizes.
func BenchmarkAblationCoarsening(b *testing.B) {
	w := figWorkload(b, "10", "heat-2d", benchScale2D)
	spec, _ := tessellate.StencilByName(w.Kernel)
	for _, variant := range []struct {
		name  string
		block []int
	}{
		{"coarsened-1x2", []int{w.TessBig[0], 2 * w.TessBig[0]}},
		{"uniform", []int{w.TessBig[0], w.TessBig[0]}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			eng := tessellate.NewEngine(0)
			defer eng.Close()
			for i := 0; i < b.N; i++ {
				g := tessellate.NewGrid2D(w.N[0], w.N[1], 1, 1)
				opt := tessellate.Options{TimeTile: w.TessBT, Block: variant.block}
				if err := eng.Run2D(g, spec, w.Steps, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Updates())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupd/s")
		})
	}
}

// BenchmarkAblationTimeTile sweeps the time-tile height b, the central
// tuning parameter of the scheme.
func BenchmarkAblationTimeTile(b *testing.B) {
	w := figWorkload(b, "10", "heat-2d", benchScale2D)
	spec, _ := tessellate.StencilByName(w.Kernel)
	for _, bt := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("bt=%d", bt), func(b *testing.B) {
			eng := tessellate.NewEngine(0)
			defer eng.Close()
			for i := 0; i < b.N; i++ {
				g := tessellate.NewGrid2D(w.N[0], w.N[1], 1, 1)
				opt := tessellate.Options{TimeTile: bt, Block: []int{4 * bt, 8 * bt}}
				if err := eng.Run2D(g, spec, w.Steps, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Updates())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupd/s")
		})
	}
}

// BenchmarkSyncOverhead measures the cost structure Table 1 predicts:
// the tessellation needs d synchronizations per time tile. It runs a
// tiny per-phase problem where synchronization dominates.
func BenchmarkSyncOverhead(b *testing.B) {
	eng := tessellate.NewEngine(0)
	defer eng.Close()
	g := tessellate.NewGrid2D(64, 64, 1, 1)
	for i := 0; i < b.N; i++ {
		if err := eng.Run2D(g, tessellate.Heat2D, 8, tessellate.Options{TimeTile: 2, Block: []int{8, 8}}); err != nil {
			b.Fatal(err)
		}
	}
}
