package tessellate

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// schemes1D..3D list the schemes available per dimensionality.
var (
	schemes1D = []Scheme{Tessellation, Naive, SpaceTiled, Skewed, Diamond, Oblivious}
	schemes2D = []Scheme{Tessellation, Naive, SpaceTiled, Skewed, Diamond, Oblivious, MWD, Overlapped}
	schemes3D = []Scheme{Tessellation, Naive, SpaceTiled, Skewed, Diamond, Oblivious, MWD, D35}
)

// checkSchemes runs every scheme on clones of base and compares each
// result with ref, the naive run of steps steps. A scheme in avail must
// match ref bitwise both in one call and split into a 3-step call and
// the rest: the odd first call leaves the grid's Step odd, so a scheme
// that counts buffer parity from 0 reads the stale buffer. Every other
// scheme must refuse the run and leave the grid as base.
func checkSchemes[G any](t *testing.T, name string, base, ref G, avail []Scheme, steps int, opt Options,
	clone func(G) G, run func(G, int, Options) error, same func(got, ref G) verify.Result) {
	t.Helper()
	for _, sc := range Schemes() {
		opt.Scheme = sc
		if !slices.Contains(avail, sc) {
			g := clone(base)
			if err := run(g, steps, opt); err == nil {
				t.Errorf("%s/%v: unavailable scheme accepted", name, sc)
			}
			if !reflect.DeepEqual(g, base) {
				t.Errorf("%s/%v: refused run changed the grid", name, sc)
			}
			continue
		}
		for _, first := range []int{steps, 3} {
			g := clone(base)
			err := run(g, first, opt)
			if err == nil && first < steps {
				err = run(g, steps-first, opt)
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", name, sc, err)
			}
			if r := same(g, ref); !r.Equal {
				t.Fatalf("%s/%v in %d+%d steps: %v", name, sc, first, steps-first, r.Error(sc.String()))
			}
		}
	}
}

// TestAllSchemesAgree1D runs every 1D scheme on the same input and
// demands bitwise-identical output.
func TestAllSchemesAgree1D(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	for _, s := range []*Stencil{Heat1D, P1D5} {
		base := NewGrid1D(200, s.MaxSlope())
		rng := rand.New(rand.NewSource(5))
		base.Fill(func(x int) float64 { return rng.Float64() })
		base.SetBoundary(0.75)

		ref := base.Clone()
		if err := eng.Run1D(ref, s, 25, Options{Scheme: Naive}); err != nil {
			t.Fatal(err)
		}
		checkSchemes(t, s.Name, base, ref, schemes1D, 25, Options{TimeTile: 4}, (*Grid1D).Clone,
			func(g *Grid1D, n int, o Options) error { return eng.Run1D(g, s, n, o) }, verify.Grids1D)
	}
}

// TestAllSchemesAgree2D does the same for the three 2D kernels.
func TestAllSchemesAgree2D(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	for _, s := range []*Stencil{Heat2D, Box2D9, Life} {
		base := NewGrid2D(48, 52, 1, 1)
		rng := rand.New(rand.NewSource(6))
		if s == Life {
			base.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
		} else {
			base.Fill(func(x, y int) float64 { return rng.Float64() })
		}
		ref := base.Clone()
		if err := eng.Run2D(ref, s, 14, Options{Scheme: Naive}); err != nil {
			t.Fatal(err)
		}
		checkSchemes(t, s.Name, base, ref, schemes2D, 14, Options{TimeTile: 3}, (*Grid2D).Clone,
			func(g *Grid2D, n int, o Options) error { return eng.Run2D(g, s, n, o) }, verify.Grids2D)
	}
}

// TestAllSchemesAgree3D does the same for the 3D kernels.
func TestAllSchemesAgree3D(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	for _, s := range []*Stencil{Heat3D, Box3D27} {
		base := NewGrid3D(20, 18, 22, 1, 1, 1)
		rng := rand.New(rand.NewSource(7))
		base.Fill(func(x, y, z int) float64 { return rng.Float64() })
		ref := base.Clone()
		if err := eng.Run3D(ref, s, 7, Options{Scheme: Naive}); err != nil {
			t.Fatal(err)
		}
		checkSchemes(t, s.Name, base, ref, schemes3D, 7, Options{TimeTile: 2}, (*Grid3D).Clone,
			func(g *Grid3D, n int, o Options) error { return eng.Run3D(g, s, n, o) }, verify.Grids3D)
	}
}

func TestDefaultOptionsAreTessellation(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	g := NewGrid2D(40, 40, 1, 1)
	rng := rand.New(rand.NewSource(8))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	ref := g.Clone()
	if err := eng.Run2D(g, Heat2D, 10, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run2D(ref, Heat2D, 10, Options{Scheme: Naive}); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids2D(g, ref); !r.Equal {
		t.Fatal(r.Error("default-options"))
	}
}

func TestNoMergeAblation(t *testing.T) {
	eng := NewEngine(3)
	defer eng.Close()
	g := NewGrid2D(36, 36, 1, 1)
	rng := rand.New(rand.NewSource(9))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	merged := g.Clone()
	if err := eng.Run2D(g, Heat2D, 9, Options{TimeTile: 3, NoMerge: true}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run2D(merged, Heat2D, 9, Options{TimeTile: 3}); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids2D(g, merged); !r.Equal {
		t.Fatal(r.Error("merge-ablation"))
	}
}

func TestRunNDThroughPublicAPI(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	s := NewStar(4, 1)
	g := NewNDGrid([]int{6, 6, 6, 6}, []int{1, 1, 1, 1})
	rng := rand.New(rand.NewSource(10))
	g.Fill(func(c []int) float64 { return rng.Float64() })
	if err := eng.RunND(g, s, 3, Options{TimeTile: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunND(g, s, 3, Options{Scheme: Diamond}); err == nil {
		t.Fatal("non-tessellation ND scheme should be rejected")
	}
}

func TestSchemeNamesRoundTrip(t *testing.T) {
	for _, sc := range Schemes() {
		got, err := SchemeByName(sc.String())
		if err != nil || got != sc {
			t.Fatalf("SchemeByName(%q) = %v, %v", sc.String(), got, err)
		}
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestErrorPaths(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	g := NewGrid1D(20, 1)
	if err := eng.Run1D(g, Heat1D, -1, Options{}); err == nil {
		t.Error("negative steps accepted")
	}
	if err := eng.Run1D(g, Heat1D, 2, Options{Scheme: MWD}); err == nil {
		t.Error("MWD in 1D accepted")
	}
	if err := eng.Run1D(g, Heat1D, 2, Options{Scheme: Scheme(99)}); err == nil {
		t.Error("unknown scheme accepted")
	}
	g2 := NewGrid2D(20, 20, 1, 1)
	if err := eng.Run2D(g2, Heat1D, 2, Options{}); err == nil {
		t.Error("1D kernel on 2D grid accepted")
	}
	if err := eng.Run2D(g2, Heat2D, -1, Options{}); err == nil {
		t.Error("negative steps accepted in 2D")
	}
}

func TestEngineThreadCount(t *testing.T) {
	eng := NewEngine(3)
	defer eng.Close()
	if eng.Threads() != 3 {
		t.Fatalf("Threads() = %d, want 3", eng.Threads())
	}
	def := NewEngine(0)
	defer def.Close()
	if def.Threads() < 1 {
		t.Fatal("default engine has no workers")
	}
}

// An Engine run resolves Options through core.NewConfig, the rule the
// server shares: with TimeTile alone a one-stage 2D run gets L1 tiles
// and 1D and 3D runs the §4.2 shape (clamps included), and explicit
// Block, NoMerge and CoarsenPerStage win. The run's telemetry shows
// the tiling it ran: one trace span per region, naming its kind, phase,
// index and block count, and one tess_pool_for_size sample per region,
// its dispatch work items. Both must match the schedule the core rule
// gives.
func TestEngineTileShapeIsCoreRule(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	if !telemetry.Enabled() {
		telemetry.Enable()
		defer telemetry.Disable()
	}
	cases := []struct {
		n   []int
		opt Options
	}{
		{[]int{1000}, Options{TimeTile: 4}},
		{[]int{256, 200}, Options{TimeTile: 8}},
		{[]int{128, 128}, Options{TimeTile: 16}},
		{[]int{203, 157}, Options{TimeTile: 4}},
		{[]int{40, 25}, Options{TimeTile: 4}},
		{[]int{64, 64}, Options{TimeTile: 4, Block: []int{10, 12}}},
		{[]int{64, 64}, Options{TimeTile: 2, NoMerge: true, CoarsenPerStage: []int{2, 1, 3}}},
		{[]int{32, 32, 32}, Options{TimeTile: 2}},
		{[]int{16, 16, 16}, Options{TimeTile: 2}},
	}
	type region struct {
		name                 string
		phase, index, blocks int64
	}
	for _, c := range cases {
		steps := 2*c.opt.TimeTile + 1
		var s *Stencil
		var run func() error
		switch len(c.n) {
		case 1:
			s = Heat1D
			run = func() error { return eng.Run1D(NewGrid1D(c.n[0], 1), s, steps, c.opt) }
		case 2:
			s = Heat2D
			run = func() error { return eng.Run2D(NewGrid2D(c.n[0], c.n[1], 1, 1), s, steps, c.opt) }
		default:
			s = Heat3D
			run = func() error { return eng.Run3D(NewGrid3D(c.n[0], c.n[1], c.n[2], 1, 1, 1), s, steps, c.opt) }
		}
		cfg := core.NewConfig(c.n, s.Slopes, 1, c.opt.TimeTile, c.opt.Block, c.opt.NoMerge, c.opt.CoarsenPerStage)
		sched, err := core.NewSchedule(&cfg, steps)
		if err != nil {
			t.Fatalf("%v %+v: %v", c.n, c.opt, err)
		}
		var want []region
		wantTasks := 0
		for i, r := range sched.Regions() {
			name := "stage"
			if r.Diamond {
				name = "diamond"
			}
			want = append(want, region{name, int64(r.Ref / cfg.BT), int64(i), int64(len(r.Blocks))})
			wantTasks += r.Tasks()
		}

		telemetry.DefaultTracer.Reset()
		tasks0 := telemetry.PoolForSize.Sum()
		if err := run(); err != nil {
			t.Fatalf("%v %+v: %v", c.n, c.opt, err)
		}
		var got []region
		for _, ev := range telemetry.DefaultTracer.Events() {
			if ev.Cat == "core" {
				got = append(got, region{ev.Name, ev.Phase, ev.Stage, ev.Blocks})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v %+v: Engine ran regions %v, core rule gives %v", c.n, c.opt, got, want)
		}
		if gotTasks := int(telemetry.PoolForSize.Sum() - tasks0); gotTasks != wantTasks {
			t.Errorf("%v %+v: Engine dispatched %d work items, core rule gives %d", c.n, c.opt, gotTasks, wantTasks)
		}
	}
}
