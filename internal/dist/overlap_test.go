package dist

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// newTCPCluster builds n loopback TCP transports on ephemeral ports,
// wired to each other, closed with the test.
func newTCPCluster(t *testing.T, n int, opts TCPOptions) []Transport {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		tr, err := NewTCPTransportOpts(i, addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		addrs[i] = tr.Addr()
		ts[i] = tr
	}
	return ts
}

// runClusterMode is runCluster with a switchable exchange mode.
func runClusterMode(t *testing.T, ts []Transport, cfg *core.Config, spec *stencil.Spec, initial *grid.Grid2D, steps int, overlap bool) *grid.Grid2D {
	t.Helper()
	n := len(ts)
	ranks := make([]*Rank, n)
	for i := 0; i < n; i++ {
		r, err := NewRank(i, n, ts[i], cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.SetOverlap(overlap)
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ranks[i].Run(steps)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	out := grid.NewGrid2D(cfg.N[0], cfg.N[1], initial.HX, initial.HY)
	out.Step = initial.Step + steps
	for _, r := range ranks {
		r.Territory(out)
	}
	return out
}

// The overlapped exchange must be bitwise identical to the single-rank
// reference (and so to the synchronous path, which the existing tests
// pin to the same reference) at every rank count, over both the
// channel and the TCP substrate.
func TestOverlapMatchesSingleRank(t *testing.T) {
	for _, nranks := range []int{2, 3, 4} {
		for _, spec := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9} {
			nx, ny := 96, 40
			cfg := testConfig(nx, ny)
			initial := grid.NewGrid2D(nx, ny, 1, 1)
			rng := rand.New(rand.NewSource(int64(nranks)))
			initial.Fill(func(x, y int) float64 { return rng.Float64() })
			initial.SetBoundary(0.5)

			ref := initial.Clone()
			naive.Run2D(ref, spec, 10, nil)

			got := runClusterMode(t, LocalCluster(nranks), cfg, spec, initial, 10, true)
			if r := verify.Grids2D(got, ref); !r.Equal {
				t.Fatalf("nranks=%d %s: %v", nranks, spec.Name, r.Error("overlapped"))
			}
		}
	}
}

func TestOverlapRaggedSteps(t *testing.T) {
	nx, ny := 80, 30
	cfg := testConfig(nx, ny)
	for _, steps := range []int{1, 4, 7, 11} {
		initial := grid.NewGrid2D(nx, ny, 1, 1)
		rng := rand.New(rand.NewSource(9))
		initial.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := initial.Clone()
		naive.Run2D(ref, stencil.Heat2D, steps, nil)
		got := runClusterMode(t, LocalCluster(3), cfg, stencil.Heat2D, initial, steps, true)
		if r := verify.Grids2D(got, ref); !r.Equal {
			t.Fatalf("steps=%d: %v", steps, r.Error("overlapped-ragged"))
		}
	}
}

func TestOverlapOverTCP(t *testing.T) {
	for _, nranks := range []int{2, 3} {
		ts := newTCPCluster(t, nranks, TCPOptions{})
		nx, ny := 96, 24
		cfg := testConfig(nx, ny)
		initial := grid.NewGrid2D(nx, ny, 1, 1)
		rng := rand.New(rand.NewSource(77))
		initial.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := initial.Clone()
		naive.Run2D(ref, stencil.Heat2D, 9, nil)
		got := runClusterMode(t, ts, cfg, stencil.Heat2D, initial, 9, true)
		if r := verify.Grids2D(got, ref); !r.Equal {
			t.Fatalf("nranks=%d: %v", nranks, r.Error("overlapped-tcp"))
		}
	}
}

func TestOverlap3DMatchesSingleRank(t *testing.T) {
	for _, nranks := range []int{2, 3} {
		nx, ny, nz := 48, 14, 16
		cfg := &core.Config{N: []int{nx, ny, nz}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 8}, Merge: true}
		initial := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
		rng := rand.New(rand.NewSource(int64(nranks)))
		initial.Fill(func(x, y, z int) float64 { return rng.Float64() })
		initial.SetBoundary(0.25)

		ref := initial.Clone()
		naive.Run3D(ref, stencil.Heat3D, 7, nil)

		ts := LocalCluster(nranks)
		ranks := make([]*Rank, nranks)
		for i := 0; i < nranks; i++ {
			r, err := NewRank(i, nranks, ts[i], cfg, stencil.Heat3D, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.SetOverlap(true)
			if err := r.Scatter(initial); err != nil {
				t.Fatal(err)
			}
			ranks[i] = r
		}
		var wg sync.WaitGroup
		errs := make([]error, nranks)
		for i := range ranks {
			wg.Add(1)
			go func(i int) { defer wg.Done(); errs[i] = ranks[i].Run(7) }(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", i, err)
			}
		}
		got := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
		got.Step = 7
		for _, r := range ranks {
			r.Territory(got)
		}
		if r := verify.Grids3D(got, ref); !r.Equal {
			t.Fatalf("nranks=%d: %v", nranks, r.Error("overlapped-3d"))
		}
	}
}

// splitByHalo must partition the selected set exactly, and a middle
// rank of a wide domain must actually have interior work to hide the
// exchange under.
func TestSplitByHaloPartitions(t *testing.T) {
	cfg := testConfig(192, 40)
	parts, err := Slabs(cfg.N[0], 3, ExchangeHalo(cfg))
	if err != nil {
		t.Fatal(err)
	}
	part := parts[1]
	sawInterior, sawHalo := false, false
	for _, reg := range cfg.Regions(2 * cfg.BT) {
		reg := reg
		mine := selectBlocks(cfg, &reg, part)
		halo, interior := splitByHalo(cfg, &reg, mine, part, 1, 3)
		if len(halo)+len(interior) != len(mine) {
			t.Fatalf("split lost blocks: %d + %d != %d", len(halo), len(interior), len(mine))
		}
		seen := map[int]bool{}
		for _, bi := range append(append([]int(nil), halo...), interior...) {
			if seen[bi] {
				t.Fatalf("block %d in both sets", bi)
			}
			seen[bi] = true
		}
		if len(interior) > 0 {
			sawInterior = true
		}
		if len(halo) > 0 {
			sawHalo = true
		}
	}
	if !sawInterior || !sawHalo {
		t.Fatalf("middle rank never saw both sets (interior=%v halo=%v)", sawInterior, sawHalo)
	}
}

// An overlapped run must leave the full telemetry story behind:
// per-peer exchange spans on the exchange lane, interior/halo spans on
// the compute lane, per-peer latency histograms (the autotune signal),
// and the overlapped-exchange counter.
func TestOverlapTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.DefaultTracer.Reset()
	countBefore := telemetry.DistExchangesOverlapped.Value()
	histBefore := telemetry.DistPeerExchangeSeconds.Histogram("1").Count()

	nx, ny := 96, 40
	cfg := testConfig(nx, ny)
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	initial.Fill(func(x, y int) float64 { return 1 })
	runClusterMode(t, LocalCluster(2), cfg, stencil.Heat2D, initial, 2*cfg.BT, true)

	if got := telemetry.DistExchangesOverlapped.Value(); got == countBefore {
		t.Error("overlapped-exchange counter did not move")
	}
	if got := telemetry.DistPeerExchangeSeconds.Histogram("1").Count(); got == histBefore {
		t.Error("per-peer exchange histogram did not move")
	}
	names := map[string]bool{}
	lanes := map[int]bool{}
	for _, ev := range telemetry.DefaultTracer.Events() {
		if ev.Cat == "dist" {
			names[ev.Name] = true
			lanes[ev.TID] = true
		}
	}
	for _, want := range []string{"exchange:0", "exchange:1", "interior", "halo"} {
		if !names[want] {
			t.Errorf("no %q span recorded (got %v)", want, names)
		}
	}
	// Exchange spans render on a separate lane from compute spans.
	if !lanes[exchangeLane] || !lanes[exchangeLane+1] {
		t.Errorf("exchange spans not on the exchange lanes: %v", lanes)
	}
}

// A bounded LocalCluster link must block a producer that runs ahead of
// the consumer by more than its depth, and release it when drained.
func TestLocalClusterBackpressure(t *testing.T) {
	const depth = 2
	ts := LocalClusterDepth(2, depth)
	done := make(chan struct{})
	go func() {
		for i := 0; i < depth+1; i++ {
			if err := ts[0].Send(1, []float64{float64(i)}); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("%d sends completed against a depth-%d link with no receiver", depth+1, depth)
	case <-time.After(50 * time.Millisecond):
	}
	buf := make([]float64, 1)
	if err := ts[1].Recv(0, buf); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("send did not unblock after a drain")
	}
	for i := 1; i <= depth; i++ {
		if err := ts[1].Recv(0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float64(i) {
			t.Fatalf("message %d out of order: got %v", i, buf[0])
		}
	}
}
