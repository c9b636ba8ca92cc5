package grid

import "testing"

// serialFor is a ParallelFor that runs inline — enough to verify the
// segment arithmetic covers the buffer exactly once.
func serialFor(n int, body func(i, worker int)) {
	for i := 0; i < n; i++ {
		body(i, 0)
	}
}

func TestAllocParallelCoversBuffer(t *testing.T) {
	const length = minParallelAlloc + 12345
	calls := 0
	buf := AllocParallel(length, func(n int, body func(i, worker int)) {
		calls = n
		serialFor(n, body)
	})
	if len(buf) != length {
		t.Fatalf("len = %d, want %d", len(buf), length)
	}
	if calls != allocParts {
		t.Fatalf("pfor ran %d parts, want %d", calls, allocParts)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("buf[%d] = %v, want 0", i, v)
		}
	}
}

func TestAllocParallelSmallAndNilFallBack(t *testing.T) {
	ran := false
	buf := AllocParallel(100, func(n int, body func(i, worker int)) { ran = true })
	if ran {
		t.Fatal("pfor invoked for a tiny allocation")
	}
	if len(buf) != 100 {
		t.Fatalf("len = %d", len(buf))
	}
	if got := AllocParallel(minParallelAlloc+1, nil); len(got) != minParallelAlloc+1 {
		t.Fatalf("nil-pfor len = %d", len(got))
	}
}

func TestParallelConstructorsMatchPlain(t *testing.T) {
	p1, g1 := NewGrid1DParallel(300, 2, serialFor), NewGrid1D(300, 2)
	if len(p1.Buf[0]) != len(g1.Buf[0]) || p1.N != g1.N || p1.H != g1.H {
		t.Fatal("Grid1D shape mismatch")
	}
	a := NewArena(nil, 4, 0)
	// 1030 wide rows are padded, 50 wide ones are not; every 2D
	// constructor must lay both out the same way.
	for _, ny := range []int{50, 1030} {
		g2 := NewGrid2D(40, ny, 1, 2)
		for name, o := range map[string]*Grid2D{
			"parallel": NewGrid2DParallel(40, ny, 1, 2, serialFor),
			"arena":    a.Grid2D(40, ny, 1, 2),
		} {
			if len(o.Buf[0]) != len(g2.Buf[0]) || len(o.Buf[1]) != len(g2.Buf[1]) || o.SY != g2.SY {
				t.Fatalf("Grid2D ny=%d %s: SY=%d len=%d, plain SY=%d len=%d", ny, name, o.SY, len(o.Buf[0]), g2.SY, len(g2.Buf[0]))
			}
		}
	}
	p3, g3 := NewGrid3DParallel(10, 12, 14, 1, 1, 1, serialFor), NewGrid3D(10, 12, 14, 1, 1, 1)
	if len(p3.Buf[0]) != len(g3.Buf[0]) || p3.SX != g3.SX || p3.SY != g3.SY {
		t.Fatal("Grid3D shape mismatch")
	}
}
