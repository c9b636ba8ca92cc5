package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// classMask builds one of the patterned masks of the class tests:
// "stripes" (bands of four identical rows along the second-to-last
// dimension, each cutting every fifth unit-stride cell at a band's
// offset, with every third band fully active), the named "lshape" and
// "obstacle" shapes, or "random" (each point active with probability
// 0.7, so rows rarely repeat).
func classMask(t *testing.T, name string, dims []int, seed int64) *grid.Mask {
	t.Helper()
	if name == "lshape" || name == "obstacle" {
		m, err := grid.NamedMask(name, dims)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := rand.New(rand.NewSource(seed))
	m := grid.NewMask(dims)
	p := make([]int, len(dims))
	var carve func(k int)
	carve = func(k int) {
		if k < len(dims) {
			for p[k] = 0; p[k] < dims[k]; p[k]++ {
				carve(k + 1)
			}
			return
		}
		on := rng.Intn(10) < 7
		if name == "stripes" {
			band := 0
			if d := len(p); d > 1 {
				band = p[d-2] / 4
			}
			on = band%3 == 2 || (p[len(p)-1]+band)%5 != 0
		}
		if !on {
			m.Set(false, p...)
		}
	}
	carve(0)
	m.Finalize()
	return m
}

// classCounts tallies the mask classes lane.classify gives the blocks
// of every region of a schedule: [full, empty, mixed].
func classCounts(cfg *Config, steps int, m *grid.Mask, grow []int) [3]int {
	var n [3]int
	l := &newLanes(1, len(cfg.N))[0]
	for _, r := range cfg.Regions(steps) {
		for b0 := 0; b0 < len(r.Blocks); b0 += 64 {
			b1 := min(b0+64, len(r.Blocks))
			full, empty := l.classify(cfg, &r, b0, b1, m, grow)
			for bi := b0; bi < b1; bi++ {
				switch bit := uint64(1) << uint(bi-b0); {
				case full&bit != 0:
					n[0]++
				case empty&bit != 0:
					n[1]++
				default:
					n[2]++
				}
			}
		}
	}
	return n
}

// TestMaskClassesMatchNaive runs one-stage, SSP-RK2 and leapfrog
// pipelines on patterned and random masks in 1D, 2D and 3D, on every
// kernel tier and on one and two workers: each run must be bitwise
// equal to the naive oracle and add exactly ActiveCount*steps to
// tess_points_updated_total. The domains span several tiles along
// dimension 0, so the tile-local slots are rebased from visit to
// visit, and the blocks of every dimension fall in all three mask
// classes (full, empty and mixed).
func TestMaskClassesMatchNaive(t *testing.T) {
	old := KernelPath()
	defer SetKernelPath(old)
	telemetry.Enable()
	defer telemetry.Disable()
	dims := [][]int{{97}, {64, 70}, {18, 19, 21}}
	specs := []*stencil.Spec{stencil.Heat1D, stencil.Heat2D, stencil.Heat3D}
	for d, n := range dims {
		var classes [3]int
		for _, p := range []*stencil.Pipeline{stencil.OneStage(specs[d]), rk2ish(specs[d]), leapfrogish(specs[d])} {
			sl := p.Slopes()
			bt := 2
			if d == 2 {
				bt = 1
			}
			cfg := Config{N: n, Slopes: sl, BT: bt, Merge: p.NumStages() != 2}
			for k, s := range sl {
				cfg.Big = append(cfg.Big, 2*bt*s+2+k)
			}
			grow := p.SuffixSlopes()[0]
			steps := 3*bt + 1
			sched := mustSchedule(t, &cfg, steps)
			for _, name := range []string{"stripes", "lshape", "obstacle", "random"} {
				m := classMask(t, name, n, int64(d))
				c := classCounts(&cfg, steps, m, grow)
				for k := range classes {
					classes[k] += c[k]
				}
				for _, path := range []string{"row", "block", "simd"} {
					if err := SetKernelPath(path); err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2} {
						what := fmt.Sprintf("%dD %s %s %s %d workers", d+1, p.Name, name, path, workers)
						runClassCase(t, what, p, sched, m, workers)
					}
				}
			}
		}
		for k, c := range classes {
			if c == 0 {
				t.Errorf("%dD: no block in class %s", d+1, [3]string{"full", "empty", "mixed"}[k])
			}
		}
	}
}

// runClassCase runs p over sched under m on a fresh seeded grid of the
// schedule's extents, and checks it against the naive oracle and the
// points counter.
func runClassCase(t *testing.T, what string, p *stencil.Pipeline, sched *Schedule, m *grid.Mask, workers int) {
	t.Helper()
	pool := par.NewPool(workers)
	defer pool.Close()
	n, sl, steps := sched.Config().N, p.Slopes(), sched.Steps()
	before := telemetry.PointsUpdated.Value()
	var r verify.Result
	var err error
	var got uint64 // points the tessellated run added
	counted := func(err error) error {
		got = telemetry.PointsUpdated.Value() - before
		return err
	}
	switch len(n) {
	case 1:
		g := grid.NewGrid1D(n[0], sl[0])
		fill1D(g, 5)
		ref := g.Clone()
		if err = counted(Run(g.View(), p, sched, pool, m, nil, nil)); err == nil {
			err = naive.Run(ref.View(), p, steps, nil, m)
		}
		r = verify.Grids1D(g, ref)
	case 2:
		g := grid.NewGrid2D(n[0], n[1], sl[0], sl[1])
		fill2D(g, 5)
		ref := g.Clone()
		if err = counted(Run(g.View(), p, sched, pool, m, nil, nil)); err == nil {
			err = naive.Run(ref.View(), p, steps, nil, m)
		}
		r = verify.Grids2D(g, ref)
	default:
		g := grid.NewGrid3D(n[0], n[1], n[2], sl[0], sl[1], sl[2])
		fill3D(g, 5)
		ref := g.Clone()
		if err = counted(Run(g.View(), p, sched, pool, m, nil, nil)); err == nil {
			err = naive.Run(ref.View(), p, steps, nil, m)
		}
		r = verify.Grids3D(g, ref)
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !r.Equal {
		t.Fatalf("%s: %v", what, r.Error("mask-class"))
	}
	if want := uint64(m.ActiveCount() * steps); got != want {
		t.Fatalf("%s: points updated = %d, want exactly %d", what, got, want)
	}
}
