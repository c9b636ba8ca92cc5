package core

import (
	"sync"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

func TestRunMasked1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.P1D5} {
		for _, name := range []string{"lshape", "obstacle"} {
			m, err := grid.NamedMask(name, []int{97})
			if err != nil {
				t.Fatal(err)
			}
			slope := s.Slopes[0]
			cfg := Config{N: []int{97}, Slopes: s.Slopes, BT: 4, Big: []int{16 * slope}, Merge: true}
			g := grid.NewGrid1D(97, slope)
			fill1D(g, 21)
			ref := g.Clone()
			steps := 13
			if err := Run1D(g, stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, m, nil); err != nil {
				t.Fatalf("%s/%s: %v", s.Name, name, err)
			}
			if err := naive.RunMasked1D(ref, s, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids1D(g, ref); !r.Equal {
				t.Fatalf("%s/%s: %v", s.Name, name, r.Error("masked-1d"))
			}
			if g.Step != steps {
				t.Fatalf("Step = %d, want %d", g.Step, steps)
			}
		}
	}
}

func TestRunMasked2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, stencil.Life} {
		for _, name := range []string{"lshape", "obstacle"} {
			for _, merge := range []bool{false, true} {
				m, err := grid.NamedMask(name, []int{37, 41})
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{N: []int{37, 41}, Slopes: s.Slopes, BT: 3, Big: []int{10, 14}, Merge: merge}
				g := grid.NewGrid2D(37, 41, 1, 1)
				fill2D(g, 22)
				ref := g.Clone()
				steps := 8
				if err := Run2D(g, stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, m, nil); err != nil {
					t.Fatalf("%s/%s merge=%v: %v", s.Name, name, merge, err)
				}
				if err := naive.RunMasked2D(ref, s, steps, nil, m); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s/%s merge=%v: %v", s.Name, name, merge, r.Error("masked-2d"))
				}
			}
		}
	}
}

// TestRunMaskedConcurrentFinalize shares one mask that is not yet
// finalized between two concurrent runs. Both entry points finalize
// it; neither may read the summed-area table before it is complete (a
// data race under -race, and wrong block classification without it).
func TestRunMaskedConcurrentFinalize(t *testing.T) {
	const nx, ny, steps = 45, 52, 6
	s := stencil.Heat2D
	for trial := 0; trial < 4; trial++ {
		m := grid.NewMask([]int{nx, ny})
		for x := 10; x < 30; x++ {
			for y := 5 + trial; y < 40; y += 3 {
				m.Set(false, x, y)
			}
		}
		cfg := Config{N: []int{nx, ny}, Slopes: s.Slopes, BT: 2, Big: []int{12, 12}, Merge: true}
		sched := mustSchedule(t, &cfg, steps)
		var wg sync.WaitGroup
		grids := make([]*grid.Grid2D, 2)
		errs := make([]error, 2)
		for k := range grids {
			g := grid.NewGrid2D(nx, ny, 1, 1)
			fill2D(g, int64(30+trial))
			grids[k] = g
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				pool := par.NewPool(2)
				defer pool.Close()
				errs[k] = Run2D(grids[k], stencil.OneStage(s), sched, pool, m, nil)
			}(k)
		}
		wg.Wait()
		ref := grid.NewGrid2D(nx, ny, 1, 1)
		fill2D(ref, int64(30+trial))
		if err := naive.RunMasked2D(ref, s, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		for k, g := range grids {
			if errs[k] != nil {
				t.Fatalf("trial %d run %d: %v", trial, k, errs[k])
			}
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("trial %d run %d: %v", trial, k, r.Error("concurrent-finalize"))
			}
		}
	}
}

func TestRunMasked3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
		m, err := grid.NamedMask("obstacle", []int{18, 15, 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: []int{18, 15, 20}, Slopes: s.Slopes, BT: 2, Big: []int{6, 5, 8}, Merge: true}
		g := grid.NewGrid3D(18, 15, 20, 1, 1, 1)
		fill3D(g, 23)
		ref := g.Clone()
		steps := 6
		if err := Run3D(g, stencil.OneStage(s), mustSchedule(t, &cfg, steps), pool, m, nil); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := naive.RunMasked3D(ref, s, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids3D(g, ref); !r.Equal {
			t.Fatalf("%s: %v", s.Name, r.Error("masked-3d"))
		}
	}
}

// All three kernel paths through the mixed-block (bitmap-guarded)
// dispatch must match the oracle at the same path.
func TestRunMaskedPathsMatchNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	old := KernelPath()
	defer SetKernelPath(old)
	for _, path := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		m, err := grid.NamedMask("lshape", []int{37, 41})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: []int{37, 41}, Slopes: []int{1, 1}, BT: 3, Big: []int{10, 14}, Merge: true}
		g := grid.NewGrid2D(37, 41, 1, 1)
		fill2D(g, 24)
		ref := g.Clone()
		if err := Run2D(g, stencil.OneStage(stencil.Heat2D), mustSchedule(t, &cfg, 9), pool, m, nil); err != nil {
			t.Fatalf("path %s: %v", path, err)
		}
		if err := naive.RunMasked2D(ref, stencil.Heat2D, 9, nil, m); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("path %s: %v", path, r.Error("masked-path"))
		}
	}
}

// Regression: inactive cells adjacent to the domain boundary. The
// interesting interaction is a block whose box is clipped by the domain
// edge AND mask-mixed in the same rows: the per-run dispatch must not
// leak past either the clip or the mask. Carving the full border ring
// plus a notch touching it exercises every combination.
func TestRunMaskedBoundaryAdjacent(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	nx, ny := 21, 26
	m := grid.NewMask([]int{nx, ny})
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if x == 0 || y == 0 || x == nx-1 || y == ny-1 {
				m.Set(false, x, y)
			}
		}
	}
	// A notch cut inward from the boundary ring.
	for x := 1; x < 6; x++ {
		m.Set(false, x, 3)
	}
	m.Finalize()

	cfg := Config{N: []int{nx, ny}, Slopes: []int{1, 1}, BT: 2, Big: []int{6, 8}, Merge: true}
	g := grid.NewGrid2D(nx, ny, 1, 1)
	fill2D(g, 25)
	ref := g.Clone()
	steps := 9
	if err := Run2D(g, stencil.OneStage(stencil.Box2D9), mustSchedule(t, &cfg, steps), pool, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := naive.RunMasked2D(ref, stencil.Box2D9, steps, nil, m); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids2D(g, ref); !r.Equal {
		t.Fatal(r.Error("masked-boundary"))
	}
	// The frozen ring must still hold its seed values in both buffers.
	for y := 0; y < ny; y++ {
		if g.At(0, y) != ref.At(0, y) {
			t.Fatalf("boundary ring cell (0,%d) diverged", y)
		}
	}
}

func TestClipBox(t *testing.T) {
	cases := []struct {
		lo, hi, n      []int
		ok             bool
		wantLo, wantHi []int
	}{
		{[]int{-3}, []int{5}, []int{10}, true, []int{0}, []int{5}},
		{[]int{2}, []int{15}, []int{10}, true, []int{2}, []int{10}},
		{[]int{-2, 8}, []int{3, 20}, []int{10, 12}, true, []int{0, 8}, []int{3, 12}},
		{[]int{4}, []int{4}, []int{10}, false, nil, nil},
		{[]int{12}, []int{15}, []int{10}, false, nil, nil},
		{[]int{-5}, []int{-1}, []int{10}, false, nil, nil},
		// One empty dimension empties the box even if others are fine.
		{[]int{2, 11}, []int{8, 13}, []int{10, 10}, false, nil, nil},
	}
	for i, tc := range cases {
		lo := append([]int(nil), tc.lo...)
		hi := append([]int(nil), tc.hi...)
		if got := ClipBox(lo, hi, tc.n); got != tc.ok {
			t.Errorf("case %d: ClipBox = %v, want %v", i, got, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		for k := range lo {
			if lo[k] != tc.wantLo[k] || hi[k] != tc.wantHi[k] {
				t.Errorf("case %d: clipped to [%v,%v), want [%v,%v)", i, lo, hi, tc.wantLo, tc.wantHi)
			}
		}
	}
}
