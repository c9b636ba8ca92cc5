package core

import (
	"errors"
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// fill* seed grids with a deterministic pseudo-random field plus a
// non-trivial boundary so clipping bugs are visible.

func fill1D(g *grid.Grid1D, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.Fill(func(x int) float64 { return rng.Float64() })
	g.SetBoundary(0.5)
}

func fill2D(g *grid.Grid2D, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(0.25)
}

func fill3D(g *grid.Grid3D, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.Fill(func(x, y, z int) float64 { return rng.Float64() })
	g.SetBoundary(0.125)
}

func TestRun1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 7, 16, 23} {
				slope := s.Slopes[0]
				cfg := Config{N: []int{97}, Slopes: s.Slopes, BT: 4, Big: []int{16 * slope}, Merge: merge}
				g := grid.NewGrid1D(97, slope)
				fill1D(g, 1)
				ref := g.Clone()
				if err := Run(g.View(), stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, err)
				}
				naive.Run(ref.View(), stencil.OneStage(s), steps, nil, nil)
				if r := verify.Grids1D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, r.Error("tessellation-1d"))
				}
				if g.Step != steps {
					t.Fatalf("Step = %d, want %d", g.Step, steps)
				}
			}
		}
	}
}

func TestRun2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 5, 12} {
				cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: merge}
				g := grid.NewGrid2D(37, 41, 1, 1)
				if s == stencil.Life {
					rng := rand.New(rand.NewSource(2))
					g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
					g.SetBoundary(0)
				} else {
					fill2D(g, 2)
				}
				ref := g.Clone()
				if err := Run(g.View(), stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, err)
				}
				naive.Run(ref.View(), stencil.OneStage(s), steps, nil, nil)
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, r.Error("tessellation-2d"))
				}
			}
		}
	}
}

func TestRun3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 4, 9} {
				cfg := Config{N: []int{18, 15, 20}, Slopes: s.Slopes, BT: 2, Big: []int{6, 5, 8}, Merge: merge}
				if cfg.Small(1) < 0 {
					t.Fatal("bad test config")
				}
				g := grid.NewGrid3D(18, 15, 20, 1, 1, 1)
				fill3D(g, 3)
				ref := g.Clone()
				if err := Run(g.View(), stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, err)
				}
				naive.Run(ref.View(), stencil.OneStage(s), steps, nil, nil)
				if r := verify.Grids3D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", s.Name, merge, steps, r.Error("tessellation-3d"))
				}
			}
		}
	}
}

// Consecutive Run calls on the same grid must compose exactly, also
// when they tile differently: the second call has to honour the buffer
// parity the first one left behind (a grid at an odd Step holds its
// current values in Buf[1]), and every call ends with the whole grid
// at one time step, from which any tiling may start.
func TestRunChainedSegmentsMatchNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	s := stencil.Heat2D
	cfgs := []Config{
		{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: true},
		{N: []int{37, 41}, Slopes: s.Slopes, BT: 2, Big: []int{12, 16}, Merge: false},
	}
	for _, split := range [][]int{{3, 9}, {5, 7}, {1, 1, 10}, {4, 4, 4}} {
		for _, alternate := range []bool{false, true} {
			g := grid.NewGrid2D(37, 41, 1, 1)
			fill2D(g, 7)
			ref := g.Clone()
			total := 0
			for i, seg := range split {
				cfg := &cfgs[0]
				if alternate {
					cfg = &cfgs[i%2]
				}
				if err := Run(g.View(), stencil.OneStage(s), mustSchedule(t, cfg, seg), pool, nil, nil, nil); err != nil {
					t.Fatalf("split %v alternate=%v: %v", split, alternate, err)
				}
				total += seg
			}
			naive.Run(ref.View(), stencil.OneStage(s), total, nil, nil)
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("split %v alternate=%v: %v", split, alternate, r.Error("chained-2d"))
			}
		}
	}
}

func TestRunNDMatchesNaive(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cases := []struct {
		dims  []int
		big   []int
		bt    int
		order int
		box   bool
	}{
		{[]int{40}, []int{12}, 3, 1, false},
		{[]int{40}, []int{16}, 2, 2, false}, // high order (supernode-equivalent)
		{[]int{16, 18}, []int{6, 8}, 2, 1, true},
		{[]int{10, 9, 11}, []int{4, 4, 4}, 1, 1, true},
		{[]int{6, 6, 6, 6}, []int{2, 2, 2, 2}, 1, 1, false}, // 4D: beyond the specialised executors
	}
	for _, tc := range cases {
		var gs *stencil.Generic
		if tc.box {
			gs = stencil.NewBox(len(tc.dims), tc.order)
		} else {
			gs = stencil.NewStar(len(tc.dims), tc.order)
		}
		cfg := Config{N: tc.dims, Slopes: gs.Slopes, BT: tc.bt, Big: tc.big, Merge: true}
		halo := make([]int, len(tc.dims))
		for k := range halo {
			halo[k] = tc.order
		}
		g := grid.NewNDGrid(tc.dims, halo)
		rng := rand.New(rand.NewSource(4))
		g.Fill(func(c []int) float64 { return rng.Float64() })
		ref := g.Clone()
		steps := 3 * tc.bt
		if err := RunND(g, gs, mustSchedule(t, &cfg, steps), pool, nil); err != nil {
			t.Fatalf("%s: %v", gs.Name, err)
		}
		naive.RunND(ref, gs, steps, false)
		if r := verify.GridsND(g, ref); !r.Equal {
			t.Fatalf("%s dims=%v: %v", gs.Name, tc.dims, r.Error("tessellation-nd"))
		}
	}
}

// Fuzz the full pipeline: random configs, random steps, random domain,
// comparing tessellation output against the naive reference.
func TestRunFuzzAgainstNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for it := 0; it < iters; it++ {
		bt := 1 + rng.Intn(4)
		merge := rng.Intn(2) == 0
		steps := 1 + rng.Intn(3*bt+3)
		switch rng.Intn(2) {
		case 0:
			big := 2*bt + rng.Intn(2*bt+4)
			cfg := Config{N: []int{10 + rng.Intn(60)}, Slopes: []int{1}, BT: bt, Big: []int{big}, Merge: merge}
			g := grid.NewGrid1D(cfg.N[0], 1)
			fill1D(g, int64(it))
			ref := g.Clone()
			if err := Run(g.View(), stencil.OneStage(stencil.Heat1D), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
				t.Fatalf("iter %d: %v", it, err)
			}
			naive.Run(ref.View(), stencil.OneStage(stencil.Heat1D), steps, nil, nil)
			if r := verify.Grids1D(g, ref); !r.Equal {
				t.Fatalf("iter %d cfg=%+v steps=%d: %v", it, cfg, steps, r.Error("fuzz-1d"))
			}
		default:
			bigx := 2*bt + rng.Intn(2*bt+4)
			bigy := 2*bt + rng.Intn(2*bt+4)
			cfg := Config{N: []int{5 + rng.Intn(30), 5 + rng.Intn(30)}, Slopes: []int{1, 1}, BT: bt, Big: []int{bigx, bigy}, Merge: merge}
			g := grid.NewGrid2D(cfg.N[0], cfg.N[1], 1, 1)
			fill2D(g, int64(it))
			ref := g.Clone()
			if err := Run(g.View(), stencil.OneStage(stencil.Box2D9), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
				t.Fatalf("iter %d: %v", it, err)
			}
			naive.Run(ref.View(), stencil.OneStage(stencil.Box2D9), steps, nil, nil)
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("iter %d cfg=%+v steps=%d: %v", it, cfg, steps, r.Error("fuzz-2d"))
			}
		}
	}
}

// rejectCase is one argument set Run must reject, leaving Step at 0.
type rejectCase struct {
	name string
	n, h int // grid extent and halo
	p    *stencil.Pipeline
	cfg  *Config // nil: no schedule
	m    *grid.Mask
}

func expectRejected(t *testing.T, cases []rejectCase) {
	t.Helper()
	pool := par.NewPool(1)
	defer pool.Close()
	for _, c := range cases {
		var sched *Schedule
		if c.cfg != nil {
			sched = mustSchedule(t, c.cfg, 4)
		}
		g := grid.NewGrid1D(c.n, c.h)
		if err := Run(g.View(), c.p, sched, pool, c.m, nil, nil); err == nil {
			t.Errorf("%s should fail", c.name)
		}
		if g.Step != 0 {
			t.Errorf("%s: rejected run advanced Step to %d", c.name, g.Step)
		}
	}
}

// lshapeMask returns the lshape mask over n, failing the test on error.
func lshapeMask(t *testing.T, n ...int) *grid.Mask {
	t.Helper()
	m, err := grid.NamedMask("lshape", n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var rejectCfg = Config{N: []int{20}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true}

func TestRunRejectsBadArguments(t *testing.T) {
	cfg := rejectCfg
	slope2 := Config{N: []int{20}, Slopes: []int{2}, BT: 2, Big: []int{8}, Merge: true}
	badN := cfg
	badN.N = []int{21}
	heat := stencil.OneStage(stencil.Heat1D)
	expectRejected(t, []rejectCase{
		{"2D kernel on 1D run", 20, 1, stencil.OneStage(stencil.Heat2D), &cfg, nil},
		{"halo 1 with slope-2 stencil", 20, 1, stencil.OneStage(stencil.P1D5), &slope2, nil},
		{"schedule/grid extent mismatch", 20, 1, heat, &badN, nil},
		{"nil schedule", 20, 1, heat, nil, nil},
	})
	badBig := cfg
	badBig.Big = []int{2}
	if _, err := NewSchedule(&badBig, 4); err == nil {
		t.Error("Big < 2*BT*S should fail")
	}
}

// A nil mask is valid input (the full domain); a mask whose extent or
// rank differs from the grid's is not.
func TestRunMaskedRejectsBadArguments(t *testing.T) {
	cfg := rejectCfg
	heat := stencil.OneStage(stencil.Heat1D)
	expectRejected(t, []rejectCase{
		{"mask extent mismatch", 20, 1, heat, &cfg, lshapeMask(t, 21)},
		{"mask rank mismatch", 20, 1, heat, &cfg, lshapeMask(t, 20, 20)},
	})
}

func TestRunPipelineRejectsBadArguments(t *testing.T) {
	rk2 := Config{N: []int{40}, Slopes: []int{2}, BT: 2, Big: []int{16}, Merge: true}
	rk2Slope1 := rk2
	rk2Slope1.Slopes = []int{1}
	p := rk2ish(stencil.Heat1D) // compound slope 2
	expectRejected(t, []rejectCase{
		{"halo 1 with compound slope 2", 40, 1, p, &rk2, nil},
		{"schedule slopes != compound slopes", 40, 2, p, &rk2Slope1, nil},
		{"invalid pipeline", 40, 2, &stencil.Pipeline{Name: "empty"}, &rk2, nil},
		{"nil pipeline", 40, 2, nil, &rk2, nil},
		{"2D pipeline on 1D run", 40, 2, rk2ish(stencil.Heat2D), &rk2, nil},
		{"pipeline mask extent mismatch", 40, 2, p, &rk2, lshapeMask(t, 39)},
	})
}

// mustSchedule builds the schedule for (cfg, steps), failing the test
// on error.
func mustSchedule(t testing.TB, cfg *Config, steps int) *Schedule {
	t.Helper()
	sched, err := NewSchedule(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// Run with a plan naming every block, on the whole domain, is Run
// without one; a failing pass callback stops the run with its error,
// and a view reaching past the domain, a plan of the wrong length, a
// view of part of the domain without a plan or a grid of another rank
// is rejected.
func TestRunSlabPlan(t *testing.T) {
	cfg := &Config{N: []int{24, 10, 13}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 8}, Merge: true}
	sched, err := NewSchedule(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	p := stencil.OneStage(stencil.Heat3D)
	g := grid.NewGrid3D(24, 10, 13, 1, 1, 1)
	fill3D(g, 7)
	ref := g.Clone()
	if err := Run(ref.View(), p, sched, pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	plan := make([][]Pass, len(sched.Regions()))
	calls := 0
	for ri, r := range sched.Regions() {
		all := make([]int, len(r.Blocks))
		for bi := range all {
			all[bi] = bi
		}
		plan[ri] = []Pass{{Before: func() error { calls++; return nil }, Blocks: all}}
	}
	if err := Run(g.View(), p, sched, pool, nil, nil, plan); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids3D(g, ref); !r.Equal {
		t.Fatal(r.Error("slab"))
	}
	if calls != len(plan) {
		t.Fatalf("%d pass callbacks ran, want %d", calls, len(plan))
	}

	boom := errors.New("boom")
	plan[0][0].Before = func() error { return boom }
	if err := Run(g.View(), p, sched, pool, nil, nil, plan); err != boom {
		t.Fatalf("callback error not returned: %v", err)
	}
	past := g.View()
	past.X0 = 1
	if err := Run(past, p, sched, pool, nil, nil, plan); err == nil {
		t.Error("slab past the domain's end accepted")
	}
	if err := Run(g.View(), p, sched, pool, nil, nil, plan[1:]); err == nil {
		t.Error("short plan accepted")
	}
	part := grid.NewGrid3D(20, 10, 13, 1, 1, 1).View()
	part.X0 = 2
	if err := Run(part, p, sched, pool, nil, nil, nil); err == nil {
		t.Error("slab without a plan accepted")
	}
	if err := Run(grid.NewGrid1D(24, 1).View(), p, sched, pool, nil, nil, plan); err == nil {
		t.Error("1D grid accepted")
	}
}

// TestRunSlabTileLocalPipeline runs rk2, whose intermediate slot is
// tile-local, through Run on a view whose origin is x0 rows into the
// domain, one step, over the blocks whose boxes lie in the slab: its
// rows must equal those of the whole grid run over the same blocks.
// One step reads only the initial state, which the slab's halo holds.
func TestRunSlabTileLocalPipeline(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	const x0 = 21
	for _, n := range [][]int{{60, 24}, {45, 11, 13}} {
		p := rk2ish([]*stencil.Spec{stencil.Heat2D, stencil.Heat3D}[len(n)-2])
		sl := p.Slopes()
		cfg := &Config{N: n, Slopes: sl, BT: 1, Big: []int{8, 10, 9}[:len(n)]}
		sched := mustSchedule(t, cfg, 1)
		lo, hi := make([]int, len(n)), make([]int, len(n))
		plan := make([][]Pass, len(sched.Regions()))
		for ri, r := range sched.Regions() {
			blocks := []int{}
			for bi := range r.Blocks {
				if !cfg.ClippedBounds(&r, &r.Blocks[bi], 0, lo, hi) || lo[0] >= x0 {
					blocks = append(blocks, bi)
				}
			}
			plan[ri] = []Pass{{Blocks: blocks}}
		}
		var v, s grid.View
		if len(n) == 2 {
			g := grid.NewGrid2D(n[0], n[1], sl[0], sl[1])
			fill2D(g, 3)
			v, s = g.View(), grid.NewGrid2D(n[0]-x0, n[1], sl[0], sl[1]).View()
		} else {
			g := grid.NewGrid3D(n[0], n[1], n[2], sl[0], sl[1], sl[2])
			fill3D(g, 3)
			v, s = g.View(), grid.NewGrid3D(n[0]-x0, n[1], n[2], sl[0], sl[1], sl[2]).View()
		}
		s.X0 = x0
		for b := range s.Buf {
			copy(s.Buf[b], v.Buf[b][x0*v.S[0]:])
		}
		if err := Run(v, p, sched, pool, nil, nil, plan); err != nil {
			t.Fatal(err)
		}
		if err := Run(s, p, sched, pool, nil, nil, plan); err != nil {
			t.Fatal(err)
		}
		got, want := s.Buf[1], v.Buf[1][x0*v.S[0]:]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: slab cell %d = %v, whole grid %v", n, i, got[i], want[i])
			}
		}
	}
}
