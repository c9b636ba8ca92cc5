package bench

import (
	"bytes"
	"strings"
	"testing"

	"tessellate"
)

func TestTable4MatchesPaper(t *testing.T) {
	if len(Table4) != 8 {
		t.Fatalf("Table4 has %d workloads, want 8 (7 benchmarks + Fig 12)", len(Table4))
	}
	byKernel := map[string]Workload{}
	for _, w := range Table4 {
		if _, err := tessellate.StencilByName(w.Kernel); err != nil {
			t.Fatalf("workload %s: %v", w, err)
		}
		byKernel[w.Kernel+w.Figure] = w
	}
	// Spot-check paper sizes.
	if w := byKernel["heat-1d8"]; w.N[0] != 12000000 || w.Steps != 4000 {
		t.Errorf("heat-1d size %v x %d, want 12000000 x 4000", w.N, w.Steps)
	}
	if w := byKernel["heat-2d10"]; w.N[0] != 6000 || w.N[1] != 6000 || w.Steps != 2000 {
		t.Errorf("heat-2d size %v x %d, want 6000^2 x 2000", w.N, w.Steps)
	}
	if w := byKernel["3d27p11b"]; w.N[0] != 256 || w.Steps != 1000 {
		t.Errorf("3d27p size %v x %d, want 256^3 x 1000", w.N, w.Steps)
	}
	if w := byKernel["heat-3d11a"]; w.DiamondBX != 12 {
		t.Errorf("heat-3d Pluto blocking %d, want 12", w.DiamondBX)
	}
}

func TestScaledKeepsConfigsLegal(t *testing.T) {
	for _, w := range Table4 {
		for _, f := range []int{1, 2, 4, 16, 64, 1024} {
			s := w.Scaled(f)
			spec, _ := tessellate.StencilByName(w.Kernel)
			for k := range s.N {
				if s.N[k] < 1 {
					t.Fatalf("%s scaled 1/%d: N[%d]=%d", w, f, k, s.N[k])
				}
				if s.TessBig[k] < 2*s.TessBT*spec.Slopes[k] {
					t.Fatalf("%s scaled 1/%d: Big[%d]=%d < 2*%d*%d", w, f, k, s.TessBig[k], s.TessBT, spec.Slopes[k])
				}
			}
			if s.DiamondBX < 2*s.DiamondBT*spec.Slopes[0] {
				t.Fatalf("%s scaled 1/%d: diamond %dx%d illegal", w, f, s.DiamondBX, s.DiamondBT)
			}
		}
	}
}

// TestScaled3DExtents pins the 3D extents: divided by sqrt(f), never
// below two tiles, so -scale 16 runs Heat-3D at 64³ rather than 16³.
func TestScaled3DExtents(t *testing.T) {
	for _, c := range []struct{ f, n int }{{1, 256}, {4, 128}, {16, 64}, {64, 48}, {1024, 48}} {
		for _, w := range Table4 {
			if len(w.N) != 3 {
				continue
			}
			s := w.Scaled(c.f)
			for k, n := range s.N {
				if n != c.n {
					t.Fatalf("%s scaled 1/%d: N = %v, want %d per dimension", w, c.f, s.N, c.n)
				}
				if n < 2*s.TessBig[k] {
					t.Fatalf("%s scaled 1/%d: N[%d] = %d holds fewer than two %d-tiles", w, c.f, k, n, s.TessBig[k])
				}
			}
		}
	}
}

func TestValidateAllWorkloadSchedules(t *testing.T) {
	for _, w := range Table4 {
		if err := ValidateWorkload(w); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestRunProducesConsistentChecksums(t *testing.T) {
	w := ByFigure("10")[0].Scaled(128) // ~46x46x15
	var ref float64
	for i, sc := range []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation, tessellate.Diamond, tessellate.Oblivious, tessellate.Skewed, tessellate.MWD} {
		m, err := Run(w, sc, 2)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if m.MUpdates <= 0 || m.Seconds <= 0 {
			t.Fatalf("%v: non-positive measurement %+v", sc, m)
		}
		if i == 0 {
			ref = m.Checksum
		} else if m.Checksum != ref {
			t.Fatalf("%v checksum %v != naive %v", sc, m.Checksum, ref)
		}
	}
}

// smokeWorkloads returns figure fig's workloads scaled by 1/256. The
// 3D ones (48³, two tiles a side) keep 125 steps, about 21 time tiles
// of BT 6, so runFigure compares every scheme's checksum across
// many tile phases rather than the 8 steps that scale alone gives.
func smokeWorkloads(fig string) []Workload {
	ws := ByFigure(fig)
	for i, w := range ws {
		ws[i] = w.Scaled(256)
		if len(w.N) == 3 {
			ws[i].Steps = 125
		}
	}
	return ws
}

func TestRunFigureSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow")
	}
	for _, fig := range []string{"8", "9", "10", "11a", "11b"} {
		var buf bytes.Buffer
		if err := runFigure(&buf, fig, 256, smokeWorkloads(fig), []int{1, 2}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		out := buf.String()
		if !strings.Contains(out, "tessellation") || !strings.Contains(out, "diamond") {
			t.Fatalf("fig %s output missing schemes:\n%s", fig, out)
		}
	}
}

func TestRunFigure12Smokes(t *testing.T) {
	if testing.Short() {
		t.Skip("traffic replay is slow")
	}
	var buf bytes.Buffer
	if err := runFigure(&buf, "12", 256, smokeWorkloads("12"), []int{1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"traffic(MB)", "naive", "tessellation", "mwd"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig 12 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigureRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigure(&buf, "42", 8, []int{1}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestAblationSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	var ablation Experiment
	for _, e := range Experiments {
		if e.Name == "ablation" {
			ablation = e
		}
	}
	rows, err := ablation.Run(128, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Variant)
	}
	got := strings.Join(names, "|")
	for _, want := range []string{"merged", "unmerged", "uniform blocks", "half BT", "double BT", "overlapped"} {
		if !strings.Contains(got, want) {
			t.Fatalf("ablation variants %q missing %q", got, want)
		}
	}
}

// The tessellation's DRAM traffic per phase is roughly d grid streams
// for BT time steps versus one stream per step for naive, so with
// BT clearly above d the traffic must drop (the paper's Fig. 12
// effect). Note this needs the paper's tile heights — with BT == d
// there is no asymptotic win, which is why Scaled preserves temporal
// depth sub-linearly.
func TestMeasureTrafficQualitative(t *testing.T) {
	w := Workload{
		Figure: "12", Kernel: "heat-3d",
		N: []int{48, 48, 48}, Steps: 24,
		TessBT: 6, TessBig: []int{24, 24, 24},
		DiamondBX: 12, DiamondBT: 6,
		SkewBT: 6, SkewBX: []int{12, 12, 12},
	}
	const cache = 256 * 1024 // 256 KiB vs a 1.7 MiB working set
	naiveTr, err := MeasureTraffic(w, tessellate.Naive, cache)
	if err != nil {
		t.Fatal(err)
	}
	tessTr, err := MeasureTraffic(w, tessellate.Tessellation, cache)
	if err != nil {
		t.Fatal(err)
	}
	mwdTr, err := MeasureTraffic(w, tessellate.MWD, cache)
	if err != nil {
		t.Fatal(err)
	}
	if tessTr.Bytes >= naiveTr.Bytes {
		t.Fatalf("tessellation traffic %d >= naive %d: temporal tiling should reduce DRAM traffic", tessTr.Bytes, naiveTr.Bytes)
	}
	// Girih-style MWD keeps one diamond resident in the shared cache
	// and should be at least as memory-frugal as naive (Fig. 12 shows
	// it as the lowest-traffic scheme).
	if mwdTr.Bytes >= naiveTr.Bytes {
		t.Fatalf("mwd traffic %d >= naive %d", mwdTr.Bytes, naiveTr.Bytes)
	}
}
