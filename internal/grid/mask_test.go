package grid

import (
	"math/rand"
	"slices"
	"testing"
)

// randomMask builds a mask of the given extents with each point active
// with probability pAct, returning the mask (finalized) and a plain
// bool reference array indexed by flattened coordinates.
func randomMask(dims []int, pAct float64, rng *rand.Rand) (*Mask, []bool) {
	m := NewMask(dims)
	total := 1
	for _, n := range dims {
		total *= n
	}
	ref := make([]bool, total)
	forEachPoint(dims, func(p []int) {
		i := 0
		for k, v := range p {
			_ = k
			i = i*dims[k] + v
		}
		if rng.Float64() < pAct {
			ref[i] = true
		} else {
			m.Set(false, p...)
		}
	})
	m.Finalize()
	return m, ref
}

func flatIdx(dims, p []int) int {
	i := 0
	for k, v := range p {
		i = i*dims[k] + v
	}
	return i
}

func TestMaskCountBoxBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{70}, {9, 70}, {5, 6, 13}}
	for _, dims := range shapes {
		m, ref := randomMask(dims, 0.6, rng)
		// Active agrees with the reference everywhere.
		forEachPoint(dims, func(p []int) {
			if m.Active(p...) != ref[flatIdx(dims, p)] {
				t.Fatalf("dims %v: Active(%v) mismatch", dims, p)
			}
		})
		total := 0
		for _, a := range ref {
			if a {
				total++
			}
		}
		if m.ActiveCount() != total {
			t.Fatalf("dims %v: ActiveCount = %d, want %d", dims, m.ActiveCount(), total)
		}
		// Random boxes, including empty and full ones.
		d := len(dims)
		lo := make([]int, d)
		hi := make([]int, d)
		for it := 0; it < 200; it++ {
			for k, n := range dims {
				a, b := rng.Intn(n+1), rng.Intn(n+1)
				if a > b {
					a, b = b, a
				}
				lo[k], hi[k] = a, b
			}
			want := 0
			forEachPoint(dims, func(p []int) {
				for k := range p {
					if p[k] < lo[k] || p[k] >= hi[k] {
						return
					}
				}
				if ref[flatIdx(dims, p)] {
					want++
				}
			})
			if got := m.CountBox(lo, hi); got != want {
				t.Fatalf("dims %v box [%v,%v): CountBox = %d, want %d", dims, lo, hi, got, want)
			}
		}
	}
}

func TestMaskNextRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// 70 columns crosses a word boundary, exercising the padded tail.
	dims := []int{4, 70}
	m, ref := randomMask(dims, 0.5, rng)
	for x := 0; x < dims[0]; x++ {
		// Walk the runs and rebuild the row; it must match the
		// reference exactly, and runs must be maximal and ordered.
		got := make([]bool, dims[1])
		prevEnd := -1
		for a := 0; ; {
			ra, rb := m.NextRun(x, a, dims[1])
			if ra >= dims[1] {
				break
			}
			if ra < a || rb <= ra || rb > dims[1] {
				t.Fatalf("row %d: bad run [%d,%d) from %d", x, ra, rb, a)
			}
			if ra == prevEnd {
				t.Fatalf("row %d: runs [.,%d) and [%d,.) are adjacent, not maximal", x, prevEnd, ra)
			}
			for z := ra; z < rb; z++ {
				got[z] = true
			}
			prevEnd = rb
			a = rb
		}
		for z := 0; z < dims[1]; z++ {
			if got[z] != ref[x*dims[1]+z] {
				t.Fatalf("row %d col %d: runs cover %v, reference %v", x, z, got[z], ref[x*dims[1]+z])
			}
		}
	}
	// A clipped scan must not return points at or beyond hi even when
	// the underlying run continues past it.
	all := NewMask([]int{1, 128})
	all.Finalize()
	if a, b := all.NextRun(0, 10, 20); a != 10 || b != 20 {
		t.Fatalf("clipped NextRun = [%d,%d), want [10,20)", a, b)
	}
	if a, _ := all.NextRun(0, 20, 20); a != 20 {
		t.Fatalf("empty-range NextRun start = %d, want 20", a)
	}
}

func TestMaskWordPadding(t *testing.T) {
	// Extents just past a word boundary: the padding bits of the last
	// word must never count as active.
	m := NewMask([]int{65})
	m.Finalize()
	if m.ActiveCount() != 65 {
		t.Fatalf("ActiveCount = %d, want 65", m.ActiveCount())
	}
	if a, b := m.NextRun(0, 0, 65); a != 0 || b != 65 {
		t.Fatalf("NextRun = [%d,%d), want [0,65)", a, b)
	}
}

func TestMaskSetAfterFinalizePanics(t *testing.T) {
	m := NewMask([]int{8})
	m.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("Set after Finalize should panic")
		}
	}()
	m.Set(false, 3)
}

func TestNamedMask(t *testing.T) {
	if _, err := NamedMask("bogus", []int{8, 8}); err == nil {
		t.Fatal("unknown name should fail")
	}

	l, err := NamedMask("lshape", []int{8, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Cut orthant: x >= 4 && y >= 3, i.e. 4*3 = 12 points inactive.
	if got := l.ActiveCount(); got != 8*6-12 {
		t.Fatalf("lshape active = %d, want %d", got, 8*6-12)
	}
	if l.Active(4, 3) || !l.Active(3, 3) || !l.Active(4, 2) {
		t.Fatal("lshape cut boundary misplaced")
	}

	o, err := NamedMask("obstacle", []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Centred 2x2 obstacle at [3,5) x [3,5).
	if got := o.ActiveCount(); got != 64-4 {
		t.Fatalf("obstacle active = %d, want %d", got, 60)
	}
	if o.Active(3, 3) || o.Active(4, 4) || !o.Active(2, 3) || !o.Active(5, 5) {
		t.Fatal("obstacle cut misplaced")
	}

	// Rank-generic: 1D and 3D build and finalize.
	if _, err := NamedMask("lshape", []int{16}); err != nil {
		t.Fatal(err)
	}
	if _, err := NamedMask("obstacle", []int{6, 7, 8}); err != nil {
		t.Fatal(err)
	}
}

// TestMaskRowRun checks the row-run table against a brute-force
// comparison of rows, on masks whose rows repeat in runs (stripes
// copied along the second-to-last dimension) and on random ones, and
// that the summed-area table has the mask's own rank.
func TestMaskRowRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][]int{{70}, {1, 5}, {23, 70}, {4, 9, 13}, {3, 1, 130}} {
		for _, striped := range []bool{true, false} {
			m := NewMask(dims)
			ref := make([]bool, flatIdx(dims, dims)+1)
			forEachPoint(dims, func(p []int) {
				// A striped mask's bit depends on z and on the row's
				// band of four along the second-to-last dimension.
				on := rng.Intn(3) != 0
				if striped {
					band := 0
					if d := len(p); d > 1 {
						band = p[d-2] / 4
					}
					on = (p[len(p)-1]+band)%3 != 0
				}
				ref[flatIdx(dims, p)] = on
				if !on {
					m.Set(false, p...)
				}
			})
			m.Finalize()
			z := dims[len(dims)-1]
			line := 1
			if d := len(dims); d > 1 {
				line = dims[d-2]
			}
			for r := 0; r < m.rows; r++ {
				want := 1
				for r+want < m.rows && (r+want)%line != 0 {
					a, b := ref[r*z:(r+1)*z], ref[(r+want)*z:(r+want+1)*z]
					if !slices.Equal(a, b) {
						break
					}
					want++
				}
				if got := m.RowRun(r); got != want {
					t.Fatalf("dims %v striped=%v row %d: RowRun = %d, want %d", dims, striped, r, got, want)
				}
			}
			size := 1
			for _, n := range dims {
				size *= n + 1
			}
			if len(m.sum) != size {
				t.Fatalf("dims %v: summed-area table of %d entries, want %d", dims, len(m.sum), size)
			}
		}
	}
}
