package model

import (
	"testing"

	"tessellate"
	"tessellate/internal/bench"
	"tessellate/internal/core"
)

// The closed-form predictions must track the cache simulator within a
// factor of 1.6 on configurations whose block footprints fit the
// modelled cache — close enough to rank schemes and pick tile sizes.
func TestPredictionsTrackSimulator(t *testing.T) {
	w := bench.Workload{
		Figure: "12", Kernel: "heat-3d",
		N: []int{48, 48, 48}, Steps: 24,
		TessBT: 6, TessBig: []int{24, 24, 24},
		DiamondBX: 12, DiamondBT: 6,
		SkewBT: 6, SkewBX: []int{12, 12, 12},
	}
	const cacheBytes = 256 * 1024

	naiveTr, err := bench.MeasureTraffic(w, tessellate.Naive, cacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	tessTr, err := bench.MeasureTraffic(w, tessellate.Tessellation, cacheBytes)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := NaiveTraffic(), naiveTr.BytesPerPoint; !within(got, want, 1.6) {
		t.Errorf("naive prediction %.1f vs simulated %.1f", got, want)
	}
	cfg := core.Config{N: w.N, Slopes: []int{1, 1, 1}, BT: w.TessBT, Big: w.TessBig, Merge: true}
	if got, want := TessellationTraffic(&cfg, 64), tessTr.BytesPerPoint; !within(got, want, 1.6) {
		t.Errorf("tessellation prediction %.1f vs simulated %.1f", got, want)
	}
	// And the model must preserve the ordering.
	if TessellationTraffic(&cfg, 64) >= NaiveTraffic() {
		t.Error("model does not predict the temporal-tiling win")
	}
}

func TestTrafficFallsWithBT(t *testing.T) {
	mk := func(bt int) core.Config {
		return core.Config{N: []int{256, 256, 256}, Slopes: []int{1, 1, 1}, BT: bt, Big: []int{4 * bt, 4 * bt, 4 * bt}, Merge: true}
	}
	prev := 1e18
	for _, bt := range []int{2, 4, 8, 16} {
		cfg := mk(bt)
		tr := TessellationTraffic(&cfg, 64)
		if tr >= prev {
			t.Fatalf("traffic did not fall with BT=%d: %v >= %v", bt, tr, prev)
		}
		prev = tr
	}
}

func TestFootprintBytes(t *testing.T) {
	cfg := core.Config{N: []int{100, 100}, Slopes: []int{1, 1}, BT: 4, Big: []int{16, 16}, Merge: true}
	want := int64(2 * 8 * 18 * 18)
	if got := FootprintBytes(&cfg); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
}

func within(a, b, factor float64) bool {
	if a > b {
		a, b = b, a
	}
	return b <= a*factor
}
