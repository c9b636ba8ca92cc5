package dist

import (
	"math/rand"
	"sync"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// runCluster executes a distributed run over the given transports and
// gathers the result into a fresh global grid.
func runCluster(t *testing.T, ts []Transport, cfg *core.Config, spec *stencil.Spec, initial *grid.Grid2D, steps int) *grid.Grid2D {
	t.Helper()
	n := len(ts)
	ranks := make([]*Rank, n)
	for i := 0; i < n; i++ {
		r, err := NewRank(i, n, ts[i], cfg, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
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

func testConfig(nx, ny int) *core.Config {
	return &core.Config{N: []int{nx, ny}, Slopes: []int{1, 1}, BT: 3, Big: []int{10, 12}, Merge: true}
}

func TestDistributedMatchesSingleRank(t *testing.T) {
	// 1030-wide rows get a padded stride, so the exchange's row
	// packing must follow the grid's SY rather than its width.
	for _, shape := range [][2]int{{96, 40}, {48, 1030}} {
		nx, ny := shape[0], shape[1]
		for _, nranks := range []int{1, 2, 3, 4} {
			for _, spec := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9} {
				cfg := testConfig(nx, ny)
				initial := grid.NewGrid2D(nx, ny, 1, 1)
				rng := rand.New(rand.NewSource(int64(nranks)))
				initial.Fill(func(x, y int) float64 { return rng.Float64() })
				initial.SetBoundary(0.5)

				ref := initial.Clone()
				naive.Run(ref.View(), stencil.OneStage(spec), 10, nil, nil)

				got := runCluster(t, LocalCluster(nranks), cfg, spec, initial, 10)
				if r := verify.Grids2D(got, ref); !r.Equal {
					t.Fatalf("%dx%d nranks=%d %s: %v", nx, ny, nranks, spec.Name, r.Error("distributed"))
				}
			}
		}
	}
}

func TestDistributedRaggedSteps(t *testing.T) {
	nx, ny := 80, 30
	cfg := testConfig(nx, ny)
	for _, steps := range []int{1, 4, 7, 11} {
		initial := grid.NewGrid2D(nx, ny, 1, 1)
		rng := rand.New(rand.NewSource(9))
		initial.Fill(func(x, y int) float64 { return rng.Float64() })
		ref := initial.Clone()
		naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, nil, nil)
		got := runCluster(t, LocalCluster(3), cfg, stencil.Heat2D, initial, steps)
		if r := verify.Grids2D(got, ref); !r.Equal {
			t.Fatalf("steps=%d: %v", steps, r.Error("distributed-ragged"))
		}
	}
}

func TestDistributedOverTCP(t *testing.T) {
	const nranks = 2
	addrs := make([]string, nranks)
	trs := make([]*TCPTransport, nranks)
	// Bind ephemeral ports one at a time, then rewrite the address
	// table with the bound addresses.
	for i := 0; i < nranks; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < nranks; i++ {
		tr, err := NewTCPTransport(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		addrs[i] = tr.Addr() // later transports (and dials) see the real address
	}
	// Refresh every transport's view of the address table (they share
	// the backing array already; NewTCPTransport keeps the slice).
	ts := make([]Transport, nranks)
	for i := range trs {
		ts[i] = trs[i]
	}

	nx, ny := 64, 24
	cfg := testConfig(nx, ny)
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	rng := rand.New(rand.NewSource(77))
	initial.Fill(func(x, y int) float64 { return rng.Float64() })
	ref := initial.Clone()
	naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), 9, nil, nil)
	got := runCluster(t, ts, cfg, stencil.Heat2D, initial, 9)
	if r := verify.Grids2D(got, ref); !r.Equal {
		t.Fatal(r.Error("distributed-tcp"))
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	a, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addrs[0] = a.Addr()
	b, err := NewTCPTransport(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs[1] = b.Addr()

	want := []float64{1.5, -2.25, 3.125}
	done := make(chan error, 1)
	go func() { done <- a.Send(1, want) }()
	got := make([]float64, 3)
	if err := b.Recv(0, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Length mismatch must error, not corrupt.
	go a.Send(1, []float64{1, 2})
	if err := b.Recv(0, make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSlabs(t *testing.T) {
	parts, err := Slabs(100, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].X0 != 0 || parts[3].X1 != 100 {
		t.Fatalf("slabs do not cover the domain: %+v", parts)
	}
	for i := 1; i < 4; i++ {
		if parts[i].X0 != parts[i-1].X1 {
			t.Fatalf("slabs not contiguous: %+v", parts)
		}
	}
	if parts[0].ExtLo != 0 || parts[0].ExtHi != 10 {
		t.Fatalf("edge halo clipping wrong: %+v", parts[0])
	}
	if parts[1].ExtLo != 10 || parts[1].ExtHi != 10 {
		t.Fatalf("interior halo wrong: %+v", parts[1])
	}
	if _, err := Slabs(40, 8, 10); err == nil {
		t.Fatal("too-narrow slabs accepted")
	}
}

func TestCommunicationVolumeScalesWithRegions(t *testing.T) {
	// d=2 merged: 2 regions per phase; steps = 4 phases -> the paper's
	// "d messages per BT steps" plan. Each interior rank sends 2 strips
	// per region.
	nx, ny := 96, 32
	cfg := testConfig(nx, ny)
	steps := 4 * cfg.BT
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	initial.Fill(func(x, y int) float64 { return 1 })

	ts := LocalCluster(3)
	ranks := make([]*Rank, 3)
	for i := range ranks {
		r, err := NewRank(i, 3, ts[i], cfg, stencil.Heat2D, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _ = ranks[i].Run(steps) }(i)
	}
	wg.Wait()

	nRegions := len(cfg.Regions(steps))
	if got, want := ranks[1].MessagesSent, 2*nRegions; got != want {
		t.Errorf("interior rank sent %d messages, want %d (2 per region)", got, want)
	}
	if got, want := ranks[0].MessagesSent, nRegions; got != want {
		t.Errorf("edge rank sent %d messages, want %d", got, want)
	}
	wantFloats := int64(nRegions) * int64(2*ExchangeHalo(cfg)*ny) * 2
	if ranks[1].FloatsSent != wantFloats {
		t.Errorf("interior rank sent %d floats, want %d", ranks[1].FloatsSent, wantFloats)
	}
}

func TestNewRankRejectsBadInput(t *testing.T) {
	ts := LocalCluster(1)
	cfg := testConfig(64, 32)
	if _, err := NewRank(0, 1, ts[0], cfg, stencil.Heat3D, 1); err == nil {
		t.Error("3D kernel accepted")
	}
	bad := *cfg
	bad.Big = []int{2, 2}
	if _, err := NewRank(0, 1, ts[0], &bad, stencil.Heat2D, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewRank(0, 64, ts[0], cfg, stencil.Heat2D, 1); err == nil {
		t.Error("too many ranks accepted")
	}
	// A valid config whose slopes are not the stencil's.
	steep := core.Config{N: []int{64, 32}, Slopes: []int{2, 2}, BT: 2, Big: []int{10, 12}, Merge: true}
	if err := steep.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRank(0, 1, ts[0], &steep, stencil.Heat2D, 1); err == nil {
		t.Error("config slopes different from the stencil's accepted")
	}
}

// Scatter and Territory take a grid of either dimension, so they must
// reject one of the wrong kind, shape or halo width.
func TestScatterRejectsBadGrid(t *testing.T) {
	r, err := NewRank(0, 1, LocalCluster(1)[0], testConfig(64, 32), stencil.Heat2D, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, g := range map[string]any{
		"3D grid":     grid.NewGrid3D(64, 32, 4, 1, 1, 1),
		"wrong shape": grid.NewGrid2D(64, 30, 1, 1),
		"no halo":     grid.NewGrid2D(64, 32, 0, 0),
		"nil":         nil,
	} {
		if err := r.Scatter(g); err == nil {
			t.Errorf("Scatter accepted a %s", name)
		}
		if name != "no halo" {
			if err := r.Territory(g); err == nil {
				t.Errorf("Territory accepted a %s", name)
			}
		}
	}
}
