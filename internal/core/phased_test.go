package core

import (
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// Consecutive Run2D calls on the same grid must compose exactly: the
// second call has to honour the buffer parity the first one left
// behind (a grid at an odd Step holds its current values in Buf[1]).
// This is the substrate the phased runner and adaptive re-tiling
// stand on.
func TestRunChainedSegmentsMatchNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	s := stencil.Heat2D
	for _, split := range [][]int{{3, 9}, {5, 7}, {1, 1, 10}, {4, 4, 4}} {
		cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: true}
		g := grid.NewGrid2D(37, 41, 1, 1)
		fill2D(g, 7)
		ref := g.Clone()
		total := 0
		for _, seg := range split {
			if err := Run2D(g, stencil.OneStage(s), mustSchedule(t, &cfg, seg), pool, nil, nil); err != nil {
				t.Fatalf("split %v: %v", split, err)
			}
			total += seg
		}
		naive.Run2D(ref, s, total, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("split %v: %v", split, r.Error("chained-2d"))
		}
	}
}

// RunPhased must be exact for any hook cadence, including hooks that
// swap the configuration mid-run: re-tiling only happens at full
// synchronization, so results are bitwise identical to the naive
// reference.
func TestRunPhasedRetilesExactly(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	s := stencil.Heat2D
	const steps = 23
	for _, every := range []int{1, 2, 5} {
		cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: true}
		alt := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 2, Big: []int{12, 16}, Merge: false}
		g := grid.NewGrid2D(37, 41, 1, 1)
		fill2D(g, 11)
		ref := g.Clone()
		calls := 0
		hook := func(done int, cur *Config) *Config {
			calls++
			if done <= 0 || done >= steps {
				t.Errorf("hook called at step %d, outside (0, %d)", done, steps)
			}
			// Alternate between two tilings on every consultation.
			if cur == &alt {
				return &cfg
			}
			return &alt
		}
		if err := RunPhased(steps, &cfg, every, hook, func(sc *Schedule) error {
			return Run2D(g, stencil.OneStage(s), sc, pool, nil, nil)
		}); err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if calls == 0 {
			t.Fatalf("every=%d: hook never consulted", every)
		}
		naive.Run2D(ref, s, steps, nil)
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("every=%d: %v", every, r.Error("phased-2d"))
		}
		if g.Step != steps {
			t.Fatalf("every=%d: Step = %d, want %d", every, g.Step, steps)
		}
	}
}

func TestRunPhased1DAnd3D(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()

	s1 := stencil.Heat1D
	g1 := grid.NewGrid1D(97, 1)
	fill1D(g1, 3)
	ref1 := g1.Clone()
	cfg1 := Config{N: []int{97}, Slopes: s1.Slopes, BT: 4, Big: []int{16}, Merge: true}
	swapped := false
	hook1 := func(done int, cur *Config) *Config {
		if swapped {
			return nil // keep the current config
		}
		swapped = true
		return &Config{N: []int{97}, Slopes: s1.Slopes, BT: 2, Big: []int{12}, Merge: true}
	}
	if err := RunPhased(19, &cfg1, 1, hook1, func(sc *Schedule) error {
		return Run1D(g1, stencil.OneStage(s1), sc, pool, nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	naive.Run1D(ref1, s1, 19, nil)
	if r := verify.Grids1D(g1, ref1); !r.Equal {
		t.Fatal(r.Error("phased-1d"))
	}

	s3 := stencil.Heat3D
	g3 := grid.NewGrid3D(21, 23, 25, 1, 1, 1)
	fill3D(g3, 5)
	ref3 := g3.Clone()
	cfg3 := Config{N: []int{21, 23, 25}, Slopes: s3.Slopes, BT: 2, Big: []int{8, 8, 10}, Merge: true}
	if err := RunPhased(11, &cfg3, 2, func(int, *Config) *Config { return nil }, func(sc *Schedule) error {
		return Run3D(g3, stencil.OneStage(s3), sc, pool, nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	naive.Run3D(ref3, s3, 11, nil)
	if r := verify.Grids3D(g3, ref3); !r.Equal {
		t.Fatal(r.Error("phased-3d"))
	}
}

// A hook returning a config that cannot produce a correct schedule
// fails the run with a descriptive error instead of computing wrong
// values.
func TestRunPhasedRejectsInvalidHookConfig(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	s := stencil.Heat2D
	cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: true}
	g := grid.NewGrid2D(37, 41, 1, 1)
	fill2D(g, 13)
	bad := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 8, Big: []int{4, 4}, Merge: true} // Big < 2*BT*slope
	err := RunPhased(23, &cfg, 1, func(int, *Config) *Config { return &bad }, func(sc *Schedule) error {
		return Run2D(g, stencil.OneStage(s), sc, pool, nil, nil)
	})
	if err == nil {
		t.Fatal("invalid hook config accepted")
	}
}
