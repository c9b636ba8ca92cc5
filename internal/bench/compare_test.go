package bench

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Every case table runs at the smallest problem size with two rounds:
// Compare itself enforces bitwise agreement with each case's
// reference, and every row must be a usable measurement.
func TestExperimentsAtSmallestScale(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			rows, err := e.Run(1024, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			for i, r := range rows {
				if r.Experiment != e.Name || r.Repeats != 2 {
					t.Errorf("row %d: %+v", i, r)
				}
				if r.Seconds <= 0 || math.IsInf(r.Seconds, 0) || math.IsNaN(r.Seconds) {
					t.Errorf("%s/%s: median %v s", r.Workload, r.Variant, r.Seconds)
				}
				if !(r.SecondsIQR >= 0) {
					t.Errorf("%s/%s: IQR %v s", r.Workload, r.Variant, r.SecondsIQR)
				}
				if i == 0 || rows[i-1].Workload != r.Workload {
					if r.Ratio != 1 {
						t.Errorf("%s: reference %s ratio %v, want 1", r.Workload, r.Variant, r.Ratio)
					}
				}
			}
		})
	}
}

// fakeVariant returns fixed checksums and records the order it ran in.
func fakeVariant(name string, order *[]string, sum float64) Variant {
	return Variant{Name: name, Run: func(round int) (float64, float64, error) {
		*order = append(*order, name)
		return 1e-3, sum, nil
	}}
}

func TestCompareRotatesVariants(t *testing.T) {
	var order []string
	c := Case{Workload: "fake", Updates: 1e6, Variants: []Variant{
		fakeVariant("a", &order, 1), fakeVariant("b", &order, 1), fakeVariant("c", &order, 1),
	}}
	rows, err := Compare(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up in declared order, then round r starts at variant r.
	if got, want := strings.Join(order, ""), "abc"+"abc"+"bca"+"cab"; got != want {
		t.Fatalf("run order %s, want %s", got, want)
	}
	for _, r := range rows {
		if r.Repeats != 3 || r.Ratio != 1 || r.MUpdates != 1000 || r.SecondsIQR != 0 || r.Checksum != 1 {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestComparePerturbedChecksumFails(t *testing.T) {
	var order []string
	c := Case{Workload: "fake", Updates: 1, Variants: []Variant{
		fakeVariant("ref", &order, 1), fakeVariant("off", &order, math.Nextafter(1, 2)),
	}}
	if _, err := Compare(c, 2); err == nil || !strings.Contains(err.Error(), "off checksum") {
		t.Fatalf("perturbed checksum: err = %v", err)
	}
}

func TestLedgerJSONRoundTrip(t *testing.T) {
	led := NewLedger(16, 2)
	led.Rows = []Row{{
		Experiment: "mask", Workload: "fig10 heat-2d N=[375 375] T=125 lshape 75% active", Variant: "tessellation",
		Repeats: 7, Seconds: 0.0123, SecondsIQR: 0.0004, MUpdates: 856.25, Ratio: 0.81, Checksum: 71063.14292941241,
	}}
	b, err := json.Marshal(led)
	if err != nil {
		t.Fatal(err)
	}
	var back Ledger
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, led) {
		t.Fatalf("round trip changed the ledger:\n got %+v\nwant %+v", back, led)
	}
	if led.Host.GOMAXPROCS < 1 || led.Host.GoVersion == "" || led.Host.CPUFeatures == "" || led.Commit == "" {
		t.Fatalf("unstamped ledger %+v", led)
	}
}
