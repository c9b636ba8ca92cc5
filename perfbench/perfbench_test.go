package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"testing"

	"tessellate"
)

func TestQuantileAndQuartiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("p99 = %v, want 4.96", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// Reference values from Python: statistics.quantiles(v, n=4).
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrFrac(cases[0].v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	for n, want := range map[int]float64{1000: 0.99, 100000: 0.99, 100: 0.9, 12: 0.5} {
		if got := tailQ(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQ(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSameSeedSameJobMix(t *testing.T) {
	const jobs = 20000
	a, b, c := newJobStream(7, 0), newJobStream(7, 0), newJobStream(8, 0)
	counts := map[string]int{}
	differ := false
	for i := 0; i < jobs; i++ {
		ja, jb, jc := a.next(), b.next(), c.next()
		if ja.key() != jb.key() || ja.class != jb.class || ja.repeat != jb.repeat {
			t.Fatalf("job %d differs for equal seeds: %+v vs %+v", i, ja, jb)
		}
		differ = differ || ja.key() != jc.key()
		if ja.repeat {
			counts["repeat"]++
		} else {
			counts[ja.class]++
		}
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same job sequence")
	}
	for _, m := range jobMix {
		if share := float64(counts[m.class]) / jobs; math.Abs(share-m.weight) > 0.02 {
			t.Errorf("class %s share %.3f, want about %.2f", m.class, share, m.weight)
		}
	}
	w1, w2 := warmJobs(7), warmJobs(7)
	for i := range w1 {
		if w1[i].key() != w2[i].key() {
			t.Fatalf("warm-up job %d differs for equal seeds", i)
		}
	}
}

func TestSameSeedSameGrids(t *testing.T) {
	eng := tessellate.NewEngine(1)
	defer eng.Close()
	for name, w := range map[string]*computeWorkload{"heat3d": heat3dFig11a(32), "rk2": rk2LShape(64)} {
		sum := func(seed int64) float64 {
			st, err := w.setup(eng, seed)
			if err != nil {
				t.Fatalf("%s set-up: %v", name, err)
			}
			return st.checksum()
		}
		if a, b := sum(3), sum(3); a != b {
			t.Errorf("%s: seed 3 gave grids with checksums %v and %v", name, a, b)
		}
		if a, b := sum(3), sum(4); a == b {
			t.Errorf("%s: seeds 3 and 4 gave the same grid", name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// The names the program prints must be the names BENCHMARK.json
// declares, and all of them must be well formed.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared, ours []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for w := range workloads {
		ours = append(ours, w)
	}
	sort.Strings(declared)
	sort.Strings(ours)
	if len(declared) != len(ours) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", ours, declared)
	}
	for i := range ours {
		if ours[i] != declared[i] || !nameRE.MatchString(ours[i]) {
			t.Errorf("workload %q vs declared %q", ours[i], declared[i])
		}
	}
	for _, set := range []struct {
		ours     []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(set.ours) != len(set.declared) {
			t.Fatalf("%d metrics, BENCHMARK.json declares %d", len(set.ours), len(set.declared))
		}
		for i, d := range set.ours {
			if d.name != set.declared[i].Name || d.unit != set.declared[i].Unit || !nameRE.MatchString(d.name) {
				t.Errorf("metric %s (%s) vs declared %s (%s)", d.name, d.unit, set.declared[i].Name, set.declared[i].Unit)
			}
		}
	}
}

// A solve whose checksum differs from the oracle's by one ulp must be
// counted as a failure and make the result incorrect.
func TestCorruptedSolveChecksumFails(t *testing.T) {
	w := heat3dFig11a(32)
	setup, calls := w.setup, 0
	w.setup = func(eng *tessellate.Engine, seed int64) (*computeState, error) {
		st, err := setup(eng, seed)
		if err != nil {
			return nil, err
		}
		honest := st.checksum
		st.checksum = func() float64 {
			calls++
			if calls == 1 { // the oracle's, on the first set-up
				return honest()
			}
			return math.Nextafter(honest(), math.Inf(1))
		}
		return st, nil
	}
	r := newRun(1, 0.01, false)
	if err := runCompute(r, w); err != nil {
		t.Fatal(err)
	}
	res, err := r.result(endToEnd[:5])
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupted checksums gave %+v", res)
	}
}

// A served repeat whose checksum differs from the first computation,
// and a refused job, are failures.
func TestCorruptedServedChecksumFails(t *testing.T) {
	first := sweepJob{class: "heat2d", req: shapeRequest("heat2d", 5, "t")}
	again := first
	again.repeat = true
	recs := []jobRecord{
		{job: first, status: http.StatusOK, res: jobResult{Checksum: 1}},
		{job: again, status: http.StatusOK, res: jobResult{Checksum: math.Nextafter(1, 2), Cached: true}},
		{job: first, status: http.StatusTooManyRequests},
	}
	r := newRun(1, 1, false)
	newVerifier().check(r, recs)
	if r.attempted != 3 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", r.attempted, r.failed)
	}
}

func TestComputeRunsAreCorrect(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := newRun(2, 0.01, trace)
		if trace {
			r.tracer = nil // spans are not under test
		}
		if err := runCompute(r, rk2LShape(64)); err != nil {
			t.Fatal(err)
		}
		r.set("peak_rss_mb", peakRSSMiB())
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		res, err := r.result(defs)
		if err != nil {
			t.Fatalf("trace %v: %v", trace, err)
		}
		if !res.Correct {
			t.Fatalf("trace %v: %+v", trace, res)
		}
	}
}

func TestServeSweepIsCorrect(t *testing.T) {
	r := newRun(3, 0.3, false)
	if err := runServeSweep(r); err != nil {
		t.Fatal(err)
	}
	r.set("peak_rss_mb", peakRSSMiB())
	res, err := r.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 10 {
		t.Fatalf("%+v", res)
	}
}
