package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// TestOnePathPerRunUnderConcurrentSwitch pins the fix for the
// dispatch-toggle race window: a schedule replay must capture the
// kernel path exactly once at run start, so flipping the selector
// concurrently may change which path a run uses but never mixes paths
// within one run. The probe spec carries all three kernel tiers, each
// recording its invocations; a mixed run would show calls on more
// than one tier. Run with -race this also proves the selector's
// atomics are properly synchronised.
func TestOnePathPerRunUnderConcurrentSwitch(t *testing.T) {
	defer SetKernelPath(KernelPath())

	var rowC, blockC, simdC atomic.Int64
	h2 := stencil.Heat2D
	spec := &stencil.Spec{
		Name: "path-probe", Dims: 2, Shape: stencil.Star,
		Slopes: []int{1, 1}, Points: 5, Flops: 9,
		K2: func(dst, src []float64, base, n, sy int) {
			rowC.Add(1)
			h2.K2(dst, src, base, n, sy)
		},
		B2: func(dst, src []float64, base, nx, ny, sy int) {
			blockC.Add(1)
			h2.B2(dst, src, base, nx, ny, sy)
		},
		S2: func(dst, src []float64, base, nx, ny, sy int) {
			simdC.Add(1)
			h2.B2(dst, src, base, nx, ny, sy)
		},
	}

	const n, steps = 48, 4
	cfg := Config{N: []int{n, n}, Slopes: []int{1, 1}, BT: 2, Big: []int{16, 16}, Merge: true}
	sched, err := NewSchedule(&cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	g := grid.NewGrid2D(n, n, 1, 1)
	rng := rand.New(rand.NewSource(1))
	g.Fill(func(x, y int) float64 { return rng.Float64() })

	// Flipper: hammer the selector while runs replay the schedule.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		paths := []string{"row", "block", "simd"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := SetKernelPath(paths[i%len(paths)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for run := 0; run < 50; run++ {
		rowC.Store(0)
		blockC.Store(0)
		simdC.Store(0)
		if err := RunScheduled2D(g, spec, sched, pool); err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, c := range []*atomic.Int64{&rowC, &blockC, &simdC} {
			if c.Load() > 0 {
				used++
			}
		}
		if used == 0 {
			t.Fatal("run dispatched no kernels")
		}
		if used > 1 {
			t.Fatalf("run %d mixed dispatch paths: row=%d block=%d simd=%d",
				run, rowC.Load(), blockC.Load(), simdC.Load())
		}
	}
	close(stop)
	<-done
}

// TestSetKernelPathNames pins the selector API: valid names round-trip
// through KernelPath, unknown names error without changing the
// setting, and BlockKernelsEnabled follows the row/block switch.
func TestSetKernelPathNames(t *testing.T) {
	defer SetKernelPath(KernelPath())
	for _, name := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(name); err != nil {
			t.Fatalf("SetKernelPath(%q): %v", name, err)
		}
		if got := KernelPath(); got != name {
			t.Fatalf("KernelPath() = %q after SetKernelPath(%q)", got, name)
		}
	}
	if err := SetKernelPath("avx512"); err == nil {
		t.Fatal("unknown path name accepted")
	}
	if got := KernelPath(); got != "simd" {
		t.Fatalf("failed SetKernelPath changed the selection to %q", got)
	}
	SetKernelPath("row")
	if BlockKernelsEnabled() {
		t.Fatal("BlockKernelsEnabled true on row path")
	}
	SetKernelPath("block")
	if !BlockKernelsEnabled() {
		t.Fatal("BlockKernelsEnabled false on block path")
	}
}

// TestSIMDPathDegradesToBlock pins the fallback contract: requesting
// simd always succeeds, and a run on a spec without vector kernels
// (or a platform without support) silently uses the best tier it has.
func TestSIMDPathDegradesToBlock(t *testing.T) {
	defer SetKernelPath(KernelPath())
	if err := SetKernelPath("simd"); err != nil {
		t.Fatalf("SetKernelPath(simd) must not error on any platform: %v", err)
	}

	var blockC, simdC atomic.Int64
	h2 := stencil.Heat2D
	spec := &stencil.Spec{
		Name: "no-simd-probe", Dims: 2, Shape: stencil.Star,
		Slopes: []int{1, 1}, Points: 5, Flops: 9,
		K2: h2.K2,
		B2: func(dst, src []float64, base, nx, ny, sy int) {
			blockC.Add(1)
			h2.B2(dst, src, base, nx, ny, sy)
		},
	}
	const n = 32
	cfg := Config{N: []int{n, n}, Slopes: []int{1, 1}, BT: 2, Big: []int{16, 16}}
	pool := par.NewPool(1)
	defer pool.Close()
	g := grid.NewGrid2D(n, n, 1, 1)
	g.Fill(func(x, y int) float64 { return float64(x ^ y) })
	if err := Run(g.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 2), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if blockC.Load() == 0 {
		t.Fatal("simd request on a spec without S2 did not degrade to block")
	}
	if simdC.Load() != 0 {
		t.Fatal("simd counter moved without a simd kernel")
	}
}
