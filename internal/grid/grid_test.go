package grid

import (
	"testing"
	"testing/quick"
)

func TestGrid1DLayout(t *testing.T) {
	g := NewGrid1D(10, 2)
	if len(g.Buf[0]) != 14 || len(g.Buf[1]) != 14 {
		t.Fatalf("buffer length = %d, want 14", len(g.Buf[0]))
	}
	g.Set(0, 1.5)
	g.Set(9, 2.5)
	if g.Buf[0][2] != 1.5 || g.Buf[0][11] != 2.5 {
		t.Fatal("Set placed values at wrong flat positions")
	}
	if g.At(0) != 1.5 || g.At(9) != 2.5 {
		t.Fatal("At read back wrong values")
	}
}

func TestGrid1DBoundary(t *testing.T) {
	g := NewGrid1D(4, 3)
	g.SetBoundary(7)
	for i := 0; i < 3; i++ {
		for b := 0; b < 2; b++ {
			if g.Buf[b][i] != 7 || g.Buf[b][len(g.Buf[b])-1-i] != 7 {
				t.Fatalf("halo cell %d buffer %d not set", i, b)
			}
		}
	}
	if g.Buf[0][3] != 0 {
		t.Fatal("interior overwritten by SetBoundary")
	}
}

func TestGrid2DIdxRowMajor(t *testing.T) {
	// A short row keeps the dense stride; a 128-wide one (130 cells
	// with halos) is padded to 132, since its fourth row would start
	// 64 B past the first 4 KiB boundary.
	for _, c := range []struct{ nx, ny, hx, hy, sy int }{{3, 5, 1, 2, 9}, {3, 128, 1, 1, 132}} {
		g := NewGrid2D(c.nx, c.ny, c.hx, c.hy)
		// y must be unit-stride.
		if g.Idx(0, 1)-g.Idx(0, 0) != 1 {
			t.Fatal("y is not unit-stride")
		}
		if g.Idx(1, 0)-g.Idx(0, 0) != g.SY {
			t.Fatal("x stride != SY")
		}
		if g.SY != c.sy {
			t.Fatalf("%dx%d halo %d,%d: SY = %d, want %d", c.nx, c.ny, c.hx, c.hy, g.SY, c.sy)
		}
		if len(g.Buf[0]) != (c.nx+2*c.hx)*g.SY {
			t.Fatalf("buffer holds %d cells, want %d rows of %d", len(g.Buf[0]), c.nx+2*c.hx, g.SY)
		}
	}
}

// Row strides: each stride is the first one from the dense width up
// for which none of the next four rows starts within 128 B of a
// non-zero multiple of 4 KiB, so rows too short to reach the first
// boundary in four rows stay dense and no row pads 32 cells or more.
func TestGrid2DRowStride(t *testing.T) {
	nearPage := func(sy int) bool {
		for j := 1; j <= 4; j++ {
			b := 8 * sy * j
			if off := b % 4096; (off < 128 && b >= 4096) || off > 4096-128 {
				return true
			}
		}
		return false
	}
	for ny := 1; ny <= 4100; ny++ {
		for _, hy := range []int{1, 2} {
			w := ny + 2*hy
			g, total := layout2D(3, ny, 1, hy)
			if g.SY < w || total != 5*g.SY {
				t.Fatalf("ny=%d hy=%d: SY=%d total=%d, row holds %d cells", ny, hy, g.SY, total, w)
			}
			if 8*4*w < 4096-128 && g.SY != w {
				t.Fatalf("ny=%d hy=%d: short row padded to SY=%d, want %d", ny, hy, g.SY, w)
			}
			if g.SY-w >= 32 {
				t.Fatalf("ny=%d hy=%d: SY=%d pads %d cells", ny, hy, g.SY, g.SY-w)
			}
			if nearPage(g.SY) {
				t.Fatalf("ny=%d hy=%d: SY=%d starts one of the next four rows within 128 B of a 4 KiB multiple", ny, hy, g.SY)
			}
			for sy := w; sy < g.SY; sy++ {
				if !nearPage(sy) {
					t.Fatalf("ny=%d hy=%d: SY=%d, but %d already clears every boundary", ny, hy, g.SY, sy)
				}
			}
		}
	}
	// Serving and benchmark widths: heat-2d (halo 1) at 128, 256 and
	// 384, and rk2 on a 1024-wide domain (halo 2: 1028-cell rows).
	for _, c := range []struct{ ny, hy, sy int }{{128, 1, 132}, {256, 1, 264}, {384, 1, 388}, {1024, 2, 1040}} {
		if g := NewGrid2D(8, c.ny, 1, c.hy); g.SY != c.sy {
			t.Fatalf("%d wide, halo %d: SY=%d, want %d", c.ny, c.hy, g.SY, c.sy)
		}
	}
}

// 3D grids keep the dense layout at every width, padded-2D widths
// included, from every constructor.
func TestGrid3DStridesDense(t *testing.T) {
	a := NewArena(nil, 4, 0)
	for _, s := range [][6]int{{4, 5, 6, 1, 1, 1}, {3, 4, 1026, 1, 1, 1}, {2, 3, 1030, 1, 2, 2}, {2, 2, 4096, 0, 0, 0}} {
		for name, g := range map[string]*Grid3D{
			"plain":    NewGrid3D(s[0], s[1], s[2], s[3], s[4], s[5]),
			"parallel": NewGrid3DParallel(s[0], s[1], s[2], s[3], s[4], s[5], nil),
			"arena":    a.Grid3D(s[0], s[1], s[2], s[3], s[4], s[5]),
		} {
			sy := s[2] + 2*s[5]
			sx := (s[1] + 2*s[4]) * sy
			if g.SY != sy || g.SX != sx || len(g.Buf[0]) != (s[0]+2*s[3])*sx || len(g.Buf[1]) != len(g.Buf[0]) {
				t.Fatalf("%v %s: SY=%d SX=%d len=%d, want %d %d %d", s, name, g.SY, g.SX, len(g.Buf[0]), sy, sx, (s[0]+2*s[3])*sx)
			}
		}
	}
}

func TestGrid2DFillAndClone(t *testing.T) {
	g := NewGrid2D(4, 3, 1, 1)
	g.Fill(func(x, y int) float64 { return float64(10*x + y) })
	c := g.Clone()
	c.Set(2, 1, -1)
	if g.At(2, 1) != 21 {
		t.Fatal("Clone aliases original storage")
	}
	if c.At(0, 2) != 2 {
		t.Fatal("Clone did not copy values")
	}
}

func TestGrid3DIdx(t *testing.T) {
	g := NewGrid3D(2, 3, 4, 1, 1, 1)
	if g.Idx(0, 0, 1)-g.Idx(0, 0, 0) != 1 {
		t.Fatal("z is not unit-stride")
	}
	if g.Idx(0, 1, 0)-g.Idx(0, 0, 0) != g.SY {
		t.Fatal("y stride != SY")
	}
	if g.Idx(1, 0, 0)-g.Idx(0, 0, 0) != g.SX {
		t.Fatal("x stride != SX")
	}
	if g.SY != 6 || g.SX != 5*6 {
		t.Fatalf("strides SY=%d SX=%d, want 6, 30", g.SY, g.SX)
	}
}

func TestGrid3DBoundaryDoesNotTouchInterior(t *testing.T) {
	g := NewGrid3D(3, 3, 3, 1, 1, 1)
	g.Fill(func(x, y, z int) float64 { return 1 })
	g.SetBoundary(9)
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			for z := 0; z < 3; z++ {
				if g.At(x, y, z) != 1 {
					t.Fatalf("interior (%d,%d,%d) clobbered", x, y, z)
				}
			}
		}
	}
	if g.Buf[0][g.Idx(-1, 0, 0)] != 9 {
		t.Fatal("halo not set")
	}
}

func TestNDGridMatchesGrid3D(t *testing.T) {
	nd := NewNDGrid([]int{2, 3, 4}, []int{1, 1, 1})
	g3 := NewGrid3D(2, 3, 4, 1, 1, 1)
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			for z := 0; z < 4; z++ {
				if nd.Idx([]int{x, y, z}) != g3.Idx(x, y, z) {
					t.Fatalf("layout mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestNDGridInteriorAndBounds(t *testing.T) {
	g := NewNDGrid([]int{4, 4}, []int{1, 2})
	cases := []struct {
		c        []int
		interior bool
		inBounds bool
	}{
		{[]int{0, 0}, true, true},
		{[]int{3, 3}, true, true},
		{[]int{-1, 0}, false, true},
		{[]int{0, -2}, false, true},
		{[]int{0, -3}, false, false},
		{[]int{4, 0}, false, true},
		{[]int{5, 0}, false, false},
		{[]int{0, 5}, false, true},
		{[]int{0, 6}, false, false},
	}
	for _, tc := range cases {
		if got := g.Interior(tc.c); got != tc.interior {
			t.Errorf("Interior(%v) = %v, want %v", tc.c, got, tc.interior)
		}
		if got := g.InBounds(tc.c); got != tc.inBounds {
			t.Errorf("InBounds(%v) = %v, want %v", tc.c, got, tc.inBounds)
		}
	}
}

func TestNDGridFillVisitsEveryPointOnce(t *testing.T) {
	g := NewNDGrid([]int{3, 2, 2}, []int{1, 1, 1})
	n := 0
	g.Fill(func(c []int) float64 { n++; return float64(n) })
	if n != 3*2*2 {
		t.Fatalf("Fill visited %d points, want 12", n)
	}
}

// Property: Idx is injective over the padded box for random small shapes.
func TestNDGridIdxInjective(t *testing.T) {
	f := func(a, b uint8) bool {
		d0 := int(a%4) + 1
		d1 := int(b%4) + 1
		g := NewNDGrid([]int{d0, d1}, []int{1, 1})
		seen := map[int]bool{}
		for x := -1; x <= d0; x++ {
			for y := -1; y <= d1; y++ {
				i := g.Idx([]int{x, y})
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidShapesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"Grid1D n=0":      func() { NewGrid1D(0, 1) },
		"Grid1D h<0":      func() { NewGrid1D(4, -1) },
		"Grid2D ny=0":     func() { NewGrid2D(4, 0, 1, 1) },
		"Grid3D nz=0":     func() { NewGrid3D(4, 4, 0, 1, 1, 1) },
		"NDGrid empty":    func() { NewNDGrid(nil, nil) },
		"NDGrid mismatch": func() { NewNDGrid([]int{2}, []int{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Every grid's View indexes exactly like the grid itself, and its
// buffers follow the grid's Step, not the run's first step.
func TestViewMatchesGridLayout(t *testing.T) {
	g1, g2, g3 := NewGrid1D(9, 2), NewGrid2D(7, 130, 1, 2), NewGrid3D(5, 6, 7, 1, 2, 1)
	cases := []struct {
		v   View
		idx func(c [3]int) int
	}{
		{g1.View(), func(c [3]int) int { return c[0] + g1.H }},
		{g2.View(), func(c [3]int) int { return g2.Idx(c[0], c[1]) }},
		{g3.View(), func(c [3]int) int { return g3.Idx(c[0], c[1], c[2]) }},
	}
	for _, tc := range cases {
		v := tc.v
		lo, hi := [3]int{1, 2, 3}, v.N
		for k := v.D; k < 3; k++ {
			lo[k] = 0
		}
		base, n := v.Box(lo, hi)
		if want := tc.idx(lo); base != want {
			t.Errorf("%dD: Box base %d, want %d", v.D, base, want)
		}
		for k := 0; k < v.D; k++ {
			if n[k] != v.N[k]-lo[k] {
				t.Errorf("%dD: extent %d = %d, want %d", v.D, k, n[k], v.N[k]-lo[k])
			}
		}
		*v.Step = 3
		if &v.Src(0)[0] != &v.Buf[1][0] || &v.Dst(0)[0] != &v.Buf[0][0] || &v.Src(1)[0] != &v.Buf[0][0] {
			t.Errorf("%dD: at Step 3 step 0 must read Buf[1] and write Buf[0]", v.D)
		}
	}
	if g2.Step != 3 {
		t.Errorf("View.Step does not point at the grid's Step")
	}
}
