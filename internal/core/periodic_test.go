package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// Periodic runs go through the ordinary schedule: Config.Validate
// checks that every extent is a multiple of the lattice period, and the
// one walker (RunND) and validator (ValidateSchedule) execute it.

func TestValidatePeriodicConfig(t *testing.T) {
	good := Config{N: []int{24}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true, Periodic: true} // spacing 12 | 24
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{N: []int{25}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true, Periodic: true}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-multiple domain accepted for periodic run")
	}
	if bad.Periodic = false; bad.Validate() != nil {
		t.Fatal("the multiple-of-period rule applies to periodic configs only")
	}
}

// periodicSchedule builds the periodic schedule of cfg (which the
// cases below spell without the flag) for steps steps.
func periodicSchedule(t *testing.T, cfg Config, steps int) *Schedule {
	t.Helper()
	cfg.Periodic = true
	return mustSchedule(t, &cfg, steps)
}

func TestValidatePeriodicSchedules(t *testing.T) {
	cases := []Config{
		{N: []int{24}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true},            // spacing 12
		{N: []int{40}, Slopes: []int{1}, BT: 3, Big: []int{13}, Merge: true},           // spacing 20
		{N: []int{24, 36}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 11}, Merge: true}, // 12, 18
		{N: []int{20, 20, 20}, Slopes: []int{1, 1, 1}, BT: 1, Big: []int{6, 6, 6}, Merge: true},
	}
	for _, cfg := range cases {
		cfg.Periodic = true
		for _, merge := range []bool{true, false} {
			cfg.Merge = merge
			for _, steps := range []int{1, 2 * cfg.BT, 3*cfg.BT + 1} {
				if err := ValidateSchedule(&cfg, steps); err != nil {
					t.Errorf("cfg=%+v steps=%d: %v", cfg, steps, err)
				}
			}
		}
	}
}

func TestRunNDPeriodicMatchesNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	cases := []struct {
		dims []int
		big  []int
		bt   int
	}{
		{[]int{24}, []int{8}, 2},
		{[]int{24, 36}, []int{8, 11}, 2},
		{[]int{20, 20, 20}, []int{6, 6, 6}, 1},
	}
	for _, tc := range cases {
		for _, merge := range []bool{true, false} {
			d := len(tc.dims)
			gs := stencil.NewStar(d, 1)
			cfg := Config{N: tc.dims, Slopes: gs.Slopes, BT: tc.bt, Big: tc.big, Merge: merge}
			halo := make([]int, d)
			g := grid.NewNDGrid(tc.dims, halo)
			rng := rand.New(rand.NewSource(17))
			g.Fill(func(c []int) float64 { return rng.Float64() })
			ref := g.Clone()
			steps := 3*tc.bt + 1
			if err := RunND(g, gs, periodicSchedule(t, cfg, steps), pool, nil); err != nil {
				t.Fatalf("dims=%v merge=%v: %v", tc.dims, merge, err)
			}
			naive.RunND(ref, gs, steps, true)
			if r := verify.GridsND(g, ref); !r.Equal {
				t.Fatalf("dims=%v merge=%v: %v", tc.dims, merge, r.Error("periodic-nd"))
			}
		}
	}
}

func TestRunNDPeriodicBoxStencil(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	gs := stencil.NewBox(2, 1)
	cfg := Config{N: []int{24, 24}, Slopes: gs.Slopes, BT: 2, Big: []int{8, 8}, Merge: true}
	g := grid.NewNDGrid([]int{24, 24}, []int{0, 0})
	rng := rand.New(rand.NewSource(18))
	g.Fill(func(c []int) float64 { return rng.Float64() })
	ref := g.Clone()
	if err := RunND(g, gs, periodicSchedule(t, cfg, 7), pool, nil); err != nil {
		t.Fatal(err)
	}
	naive.RunND(ref, gs, 7, true)
	if r := verify.GridsND(g, ref); !r.Equal {
		t.Fatal(r.Error("periodic-box"))
	}
}

func TestRunNDPeriodicRejectsBadDomain(t *testing.T) {
	cfg := Config{N: []int{25}, Slopes: []int{1}, BT: 2, Big: []int{8}, Merge: true, Periodic: true}
	if _, err := NewSchedule(&cfg, 4); err == nil {
		t.Fatal("non-multiple domain accepted")
	}
}

// Periodic fuzz: random multiples and tile shapes.
func TestPeriodicFuzz(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(19))
	iters := 25
	if testing.Short() {
		iters = 6
	}
	for it := 0; it < iters; it++ {
		bt := 1 + rng.Intn(3)
		big := 2*bt + rng.Intn(2*bt+3)
		cfg := Config{N: []int{0}, Slopes: []int{1}, BT: bt, Big: []int{big}, Merge: true}
		sp := cfg.Spacing(0)
		cfg.N[0] = sp * (1 + rng.Intn(4))
		steps := 1 + rng.Intn(3*bt+2)

		gs := stencil.NewStar(1, 1)
		g := grid.NewNDGrid(cfg.N, []int{0})
		g.Fill(func(c []int) float64 { return rng.Float64() })
		ref := g.Clone()
		if err := RunND(g, gs, periodicSchedule(t, cfg, steps), pool, nil); err != nil {
			t.Fatalf("iter %d cfg=%+v: %v", it, cfg, err)
		}
		naive.RunND(ref, gs, steps, true)
		if r := verify.GridsND(g, ref); !r.Equal {
			t.Fatalf("iter %d cfg=%+v steps=%d: %v", it, cfg, steps, r.Error("periodic-fuzz"))
		}
	}
}

// A periodic run goes through the walker, so a set stop flag aborts it
// at the first region boundary with Step unchanged.
func TestRunNDPeriodicStopAborts(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	gs := stencil.NewStar(2, 1)
	g := grid.NewNDGrid([]int{24, 36}, []int{0, 0})
	sched := periodicSchedule(t, Config{N: g.Dims, Slopes: gs.Slopes, BT: 2, Big: []int{8, 11}, Merge: true}, 7)
	var stop atomic.Bool
	stop.Store(true)
	if err := RunND(g, gs, sched, pool, &stop); !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-stopped periodic run returned %v, want ErrStopped", err)
	}
	if g.Step != 0 {
		t.Fatalf("aborted periodic run advanced Step to %d", g.Step)
	}
}

// With telemetry on, a periodic run counts every point once per step
// (Theorem 3.5 on the torus): the unclipped boxes that leave [0, N)
// wrap onto points no other block updates.
func TestRunNDPeriodicExactPointCount(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, merge := range []bool{true, false} {
		gs := stencil.NewStar(3, 1)
		g := grid.NewNDGrid([]int{20, 20, 20}, []int{0, 0, 0})
		const steps = 5
		sched := periodicSchedule(t, Config{N: g.Dims, Slopes: gs.Slopes, BT: 1, Big: []int{6, 6, 6}, Merge: merge}, steps)
		telemetry.Enable()
		before := telemetry.PointsUpdated.Value()
		err := RunND(g, gs, sched, pool, nil)
		updated := telemetry.PointsUpdated.Value() - before
		telemetry.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(20 * 20 * 20 * steps); updated != want {
			t.Fatalf("merge=%v: points updated = %d, want exactly %d", merge, updated, want)
		}
	}
}

// Only RunND executes periodic schedules: the pipeline executors and
// RunSlab reject them before touching the grid.
func TestPipelineRunsRejectPeriodic(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	sched := func(n ...int) *Schedule {
		big, slopes := make([]int, len(n)), make([]int, len(n))
		for k := range n {
			big[k], slopes[k] = 8, 1
		}
		return periodicSchedule(t, Config{N: n, Slopes: slopes, BT: 2, Big: big, Merge: true}, 4)
	}
	g1 := grid.NewGrid1D(24, 1)
	g2 := grid.NewGrid2D(24, 24, 1, 1)
	g3 := grid.NewGrid3D(24, 24, 24, 1, 1, 1)
	s2 := sched(24, 24)
	for name, run := range map[string]func() error{
		"Run1D": func() error { return Run1D(g1, stencil.OneStage(stencil.Heat1D), sched(24), pool, nil, nil) },
		"Run2D": func() error { return Run2D(g2, stencil.OneStage(stencil.Heat2D), s2, pool, nil, nil) },
		"Run3D": func() error {
			return Run3D(g3, stencil.OneStage(stencil.Heat3D), sched(24, 24, 24), pool, nil, nil)
		},
		"RunSlab": func() error {
			return RunSlab(g2, stencil.OneStage(stencil.Heat2D), s2, pool, 0, make([][]Pass, len(s2.Regions())))
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "periodic") {
			t.Errorf("%s on a periodic schedule returned %v, want a periodic rejection", name, err)
		}
	}
	if g1.Step != 0 || g2.Step != 0 || g3.Step != 0 {
		t.Fatal("a rejected run advanced a grid")
	}
}
