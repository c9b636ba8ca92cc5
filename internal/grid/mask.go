package grid

import (
	"fmt"
	"math/bits"
	"slices"
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
// word-at-a-time), an integer summed-area table of the mask's own rank
// giving O(1) active-point counts of any axis-aligned box (2, 4 or 8
// lookups in 1D, 2D and 3D), and a row-run table: for each row, how
// many consecutive rows from it on carry the same bits. The count is
// the executors' per-block activity summary: count == volume keeps a
// block on the unchanged full-box fast path, count == 0 skips the
// block entirely, and only mixed blocks pay for bitmap-guarded
// dispatch, where the row-run table lets a run of identical rows go to
// the kernel as one multi-row box.
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
	same  []int32  // row-run table, built by Finalize (see RowRun)
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

// Finalize builds the summed-area and row-run tables. Idempotent and
// safe to call from concurrent runs sharing one mask (every executor
// entry point calls it): the tables are built exactly once, and every
// caller returns only after they are complete. Must be called before
// CountBox or RowRun. After Finalize the mask is immutable.
func (m *Mask) Finalize() { m.once.Do(m.build) }

// Fit checks that m covers a grid of interior extents n and finalizes
// it, so that an executor's parallel bodies only ever read it. A nil
// mask, the full domain, fits every grid.
func (m *Mask) Fit(n []int) error {
	if m == nil {
		return nil
	}
	if len(m.Dims) != len(n) {
		return fmt.Errorf("mask rank %d != grid rank %d", len(m.Dims), len(n))
	}
	if !slices.Equal(m.Dims, n) {
		return fmt.Errorf("mask extents %v != grid extents %v", m.Dims, n)
	}
	m.Finalize()
	return nil
}

// build fills the summed-area and row-run tables and only then marks
// the mask final. The table has the mask's rank: entry (x+1, y+1, z+1)
// of a 3D mask (and likewise for 2D and 1D) is the active count of the
// box [0, x] x [0, y] x [0, z], and the row and column of zeros in
// front of each dimension make every box a difference of corners.
func (m *Mask) build() {
	switch d := m.Dims; len(d) {
	case 1:
		m.sum = make([]int, d[0]+1)
		for z := 0; z < d[0]; z++ {
			m.sum[z+1] = m.sum[z] + m.bit(0, z)
		}
	case 2:
		nx, ny := d[0], d[1]
		sx := ny + 1
		m.sum = make([]int, (nx+1)*sx)
		for x := 0; x < nx; x++ {
			rowSum := 0
			for y := 0; y < ny; y++ {
				rowSum += m.bit(x, y)
				i := (x+1)*sx + y + 1
				m.sum[i] = rowSum + m.sum[i-sx]
			}
		}
	default:
		nx, ny, nz := d[0], d[1], d[2]
		sx, sy := (ny+1)*(nz+1), nz+1
		m.sum = make([]int, (nx+1)*sx)
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				rowSum := 0
				for z := 0; z < nz; z++ {
					rowSum += m.bit(x*ny+y, z)
					i := (x+1)*sx + (y+1)*sy + (z + 1)
					m.sum[i] = rowSum + m.sum[i-sy] + m.sum[i-sx] - m.sum[i-sx-sy]
				}
			}
		}
	}
	m.count = m.sum[len(m.sum)-1]
	m.buildRowRuns()
	m.final = true
}

// bit returns 1 if point z of row r is active, else 0.
func (m *Mask) bit(r, z int) int {
	return int(m.bits[r*m.wpr+z/64] >> uint(z%64) & 1)
}

// buildRowRuns fills the row-run table from the last row back: a row
// that is the last of its line along the second-to-last dimension, or
// differs from the next row, starts a run of 1.
func (m *Mask) buildRowRuns() {
	m.same = make([]int32, m.rows)
	line := 1 // rows per line of the second-to-last dimension
	if d := len(m.Dims); d > 1 {
		line = m.Dims[d-2]
	}
	for r := m.rows - 1; r >= 0; r-- {
		m.same[r] = 1
		if (r+1)%line != 0 && slices.Equal(m.bits[r*m.wpr:(r+1)*m.wpr], m.bits[(r+1)*m.wpr:(r+2)*m.wpr]) {
			m.same[r] += m.same[r+1]
		}
	}
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
	for k := range m.Dims {
		if lo[k] >= hi[k] {
			return 0
		}
	}
	s := m.sum
	switch len(m.Dims) {
	case 1:
		return s[hi[0]] - s[lo[0]]
	case 2:
		sx := m.Dims[1] + 1
		x0, x1 := lo[0]*sx, hi[0]*sx
		return s[x1+hi[1]] - s[x0+hi[1]] - s[x1+lo[1]] + s[x0+lo[1]]
	}
	sy := m.Dims[2] + 1
	sx := (m.Dims[1] + 1) * sy
	at := func(x, y, z int) int { return s[x*sx+y*sy+z] }
	l, h := lo, hi
	return at(h[0], h[1], h[2]) - at(l[0], h[1], h[2]) - at(h[0], l[1], h[2]) - at(h[0], h[1], l[2]) +
		at(l[0], l[1], h[2]) + at(l[0], h[1], l[2]) + at(h[0], l[1], l[2]) - at(l[0], l[1], l[2])
}

// RowRun returns how many consecutive rows from row r on (r, r+1, ...
// along the second-to-last dimension, within one line of it) carry
// exactly row r's bits; always 1 for a 1D mask. Executors run such
// rows as one multi-row box: every row of it has the same active runs.
func (m *Mask) RowRun(r int) int {
	m.mustFinal()
	return int(m.same[r])
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
