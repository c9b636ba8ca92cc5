package grid

import (
	"fmt"
	"math/bits"
	"sync"
)

// Mask marks a subset of a grid's interior points as active. Inactive
// points (obstacle cells, the cut-out of an L-shaped room, cavity
// walls) are never updated: they keep the value they were initialised
// with in both parity buffers, so neighbouring active points read them
// as frozen interior Dirichlet cells — the same role the halo plays at
// the domain boundary, but anywhere inside the domain.
//
// The representation is a flat bitmap (rows of the unit-stride
// dimension padded to whole 64-bit words, so per-row run scanning is
// word-at-a-time) plus an integer summed-area table giving O(1)
// active-point counts of any axis-aligned box. The count is the
// executors' per-block activity summary: count == volume keeps a block
// on the unchanged full-box fast path, count == 0 skips the block
// entirely, and only mixed blocks pay for bitmap-guarded dispatch.
//
// Build: NewMask (all active), Set to carve, then Finalize before
// handing the mask to an executor. A finalized mask is immutable and
// safe for concurrent readers.
type Mask struct {
	Dims []int // interior extents per dimension, 1 <= len <= 3

	rows  int      // product of all but the last dimension
	last  int      // extent of the unit-stride dimension
	wpr   int      // words per row
	bits  []uint64 // rows * wpr words, bit z of row r = point active
	sum   []int    // summed-area table, built by Finalize
	count int      // total active points, built by Finalize
	once  sync.Once
	final bool
}

// NewMask returns an all-active mask for a grid of the given interior
// extents. It panics on an unsupported rank or non-positive extent,
// mirroring the grid constructors.
func NewMask(dims []int) *Mask {
	if len(dims) < 1 || len(dims) > 3 {
		panic(fmt.Sprintf("grid: mask rank %d, want 1-3", len(dims)))
	}
	rows := 1
	for k, n := range dims {
		if n <= 0 {
			panic(fmt.Sprintf("grid: invalid mask extents %v", dims))
		}
		if k < len(dims)-1 {
			rows *= n
		}
	}
	last := dims[len(dims)-1]
	m := &Mask{
		Dims: append([]int(nil), dims...),
		rows: rows,
		last: last,
		wpr:  (last + 63) / 64,
	}
	m.bits = make([]uint64, rows*m.wpr)
	for i := range m.bits {
		m.bits[i] = ^uint64(0)
	}
	// Clear the padding bits of each row's last word so popcounts and
	// run scans never see phantom active points.
	if r := last % 64; r != 0 {
		tail := ^uint64(0) >> (64 - uint(r))
		for row := 0; row < rows; row++ {
			m.bits[row*m.wpr+m.wpr-1] &= tail
		}
	}
	return m
}

// row maps all-but-last coordinates to the flat row index.
func (m *Mask) row(p []int) int {
	r := 0
	for k := 0; k < len(m.Dims)-1; k++ {
		if p[k] < 0 || p[k] >= m.Dims[k] {
			panic(fmt.Sprintf("grid: mask coordinate %v out of %v", p, m.Dims))
		}
		r = r*m.Dims[k] + p[k]
	}
	return r
}

// Set marks point p active or inactive. Panics if the mask was already
// finalized (the summed-area table would go stale silently).
func (m *Mask) Set(active bool, p ...int) {
	if m.final {
		panic("grid: Set on a finalized mask")
	}
	if len(p) != len(m.Dims) {
		panic(fmt.Sprintf("grid: mask rank %d, got point %v", len(m.Dims), p))
	}
	z := p[len(p)-1]
	if z < 0 || z >= m.last {
		panic(fmt.Sprintf("grid: mask coordinate %v out of %v", p, m.Dims))
	}
	w := m.row(p)*m.wpr + z/64
	bit := uint64(1) << uint(z%64)
	if active {
		m.bits[w] |= bit
	} else {
		m.bits[w] &^= bit
	}
}

// Active reports whether point p is active.
func (m *Mask) Active(p ...int) bool {
	z := p[len(p)-1]
	return m.bits[m.row(p)*m.wpr+z/64]&(1<<uint(z%64)) != 0
}

// Finalize builds the summed-area table. Idempotent and safe to call
// from concurrent runs sharing one mask (every executor entry point
// calls it): the table is built exactly once, and every caller returns
// only after it is complete. Must be called before CountBox. After
// Finalize the mask is immutable.
func (m *Mask) Finalize() { m.once.Do(m.build) }

// build fills the summed-area table and only then marks the mask final.
func (m *Mask) build() {
	d := len(m.Dims)
	dims := [3]int{1, 1, 1}
	copy(dims[3-d:], m.Dims) // right-align: dims = [nx, ny, nz] with leading 1s
	nx, ny, nz := dims[0], dims[1], dims[2]
	sx, sy := (ny+1)*(nz+1), nz+1
	m.sum = make([]int, (nx+1)*sx)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			row := (x*ny + y) * m.wpr
			rowSum := 0
			for z := 0; z < nz; z++ {
				if m.bits[row+z/64]&(1<<uint(z%64)) != 0 {
					rowSum++
				}
				i := (x+1)*sx + (y+1)*sy + (z + 1)
				m.sum[i] = rowSum + m.sum[i-sy] + m.sum[i-sx] - m.sum[i-sx-sy]
			}
		}
	}
	m.count = m.sum[nx*sx+ny*sy+nz]
	m.final = true
}

// ActiveCount returns the total number of active points (after
// Finalize).
func (m *Mask) ActiveCount() int {
	m.mustFinal()
	return m.count
}

func (m *Mask) mustFinal() {
	if !m.final {
		panic("grid: mask not finalized (call Finalize before executing)")
	}
}

// CountBox returns the number of active points in the axis-aligned box
// [lo, hi) in O(1) via the summed-area table. Bounds must lie within
// the mask's extents; an empty box counts zero.
func (m *Mask) CountBox(lo, hi []int) int {
	m.mustFinal()
	d := len(m.Dims)
	// Right-align lower-rank boxes into 3D with degenerate [0, 1)
	// leading extents, so one 8-term inclusion-exclusion covers 1D-3D.
	var l, h [3]int
	for k := 0; k < 3-d; k++ {
		h[k] = 1
	}
	copy(l[3-d:], lo)
	copy(h[3-d:], hi)
	for k := 0; k < 3; k++ {
		if l[k] >= h[k] {
			return 0
		}
	}
	sx := (m.dim(1) + 1) * (m.dim(2) + 1)
	sy := m.dim(2) + 1
	at := func(x, y, z int) int { return m.sum[x*sx+y*sy+z] }
	return at(h[0], h[1], h[2]) - at(l[0], h[1], h[2]) - at(h[0], l[1], h[2]) - at(h[0], h[1], l[2]) +
		at(l[0], l[1], h[2]) + at(l[0], h[1], l[2]) + at(h[0], l[1], l[2]) - at(l[0], l[1], l[2])
}

// dim returns the extent of right-aligned dimension k (leading
// dimensions of lower-rank masks are 1).
func (m *Mask) dim(k int) int {
	d := len(m.Dims)
	if k < 3-d {
		return 1
	}
	return m.Dims[k-(3-d)]
}

// NextRun scans the unit-stride dimension of row r (the flattened
// all-but-last coordinates) for the next maximal run of active points
// starting at or after from and ending at or before hi. It returns the
// half-open run [a, b); a >= hi means no further run. Executors
// dispatch one kernel call per run, so mixed blocks update exactly the
// active set with row-kernel arithmetic.
func (m *Mask) NextRun(r, from, hi int) (a, b int) {
	base := r * m.wpr
	a = m.scan(base, from, hi, false)
	if a >= hi {
		return hi, hi
	}
	b = m.scan(base, a+1, hi, true)
	return a, b
}

// scan returns the first index in [from, hi) whose bit is set
// (inverted == false) or clear (inverted == true); hi when none is.
func (m *Mask) scan(base, from, hi int, inverted bool) int {
	for z := from; z < hi; {
		w := m.bits[base+z/64]
		if inverted {
			w = ^w
		}
		w >>= uint(z % 64)
		if w != 0 {
			nxt := z + bits.TrailingZeros64(w)
			if nxt > hi {
				return hi
			}
			return nxt
		}
		z = (z/64 + 1) * 64
	}
	return hi
}

// RowIndex flattens all-but-last coordinates to the row index NextRun
// expects: 1D masks have the single row 0, 2D masks row x, 3D masks
// row x*NY + y.
func (m *Mask) RowIndex(p ...int) int { return m.row(p) }

// NamedMask builds one of the deterministic benchmark mask shapes for
// the given interior extents. Shapes are rank-generic (1D-3D):
//
//	"lshape":   the orthant where every coordinate is >= Dims[k]/2 is
//	            cut out, leaving an L-shaped (2D) / notched (3D) room.
//	"obstacle": a centred box obstacle of a quarter extent per
//	            dimension is cut out of an otherwise full domain.
//
// The returned mask is finalized. Unknown names list the valid ones.
func NamedMask(name string, dims []int) (*Mask, error) {
	m := NewMask(dims)
	switch name {
	case "lshape":
		forEachPoint(dims, func(p []int) {
			cut := true
			for k, v := range p {
				if v < dims[k]/2 {
					cut = false
					break
				}
			}
			if cut {
				m.Set(false, p...)
			}
		})
	case "obstacle":
		lo := make([]int, len(dims))
		hi := make([]int, len(dims))
		for k, n := range dims {
			w := n / 4
			if w < 1 {
				w = 1
			}
			lo[k] = (n - w) / 2
			hi[k] = lo[k] + w
		}
		forEachPoint(dims, func(p []int) {
			cut := true
			for k, v := range p {
				if v < lo[k] || v >= hi[k] {
					cut = false
					break
				}
			}
			if cut {
				m.Set(false, p...)
			}
		})
	default:
		return nil, fmt.Errorf("grid: unknown mask %q (valid: lshape, obstacle)", name)
	}
	m.Finalize()
	return m, nil
}

// forEachPoint walks every interior point of a rank 1-3 domain.
func forEachPoint(dims []int, f func(p []int)) {
	p := make([]int, len(dims))
	var walk func(k int)
	walk = func(k int) {
		if k == len(dims) {
			f(p)
			return
		}
		for v := 0; v < dims[k]; v++ {
			p[k] = v
			walk(k + 1)
		}
	}
	walk(0)
}
