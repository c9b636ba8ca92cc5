package grid

import "fmt"

// First-touch page placement. Linux (and every NUMA OS Go runs on)
// backs a fresh allocation with pages only when they are first
// written, and places each page on the memory node of the CPU that
// wrote it. A grid allocated and zeroed by the driver goroutine
// therefore lands entirely on one node, and remote workers pay
// cross-node latency for their share forever after. AllocParallel
// routes the initial zeroing through the caller's parallel-for — the
// same static worker mapping the sticky scheduler uses for blocks — so
// each worker faults in (roughly) the pages it will later compute on.
//
// Correctness does not depend on any of this: the buffers are fully
// zeroed either way, and on single-node machines the parallel zeroing
// is merely a slightly faster memset.

// ParallelFor runs body(i, worker) for every i in [0, n); worker is
// the lane executing that index. par.Pool.ForSticky satisfies this
// shape; the indirection keeps grid free of a par dependency.
type ParallelFor func(n int, body func(i, worker int))

// allocParts is the number of first-touch segments per buffer. It is
// deliberately much larger than any realistic worker count so that the
// static partition of segments matches the static partition of blocks
// at page granularity rather than worker granularity.
const allocParts = 256

// minParallelAlloc is the buffer length (in float64s) below which
// parallel first-touch is pointless: under a few pages, segment
// boundaries cannot align with page boundaries anyway.
const minParallelAlloc = 1 << 16

// AllocParallel returns a zeroed []float64 of the given length whose
// pages were first touched under pfor's worker mapping. A nil pfor or
// a small length falls back to a plain make.
func AllocParallel(length int, pfor ParallelFor) []float64 {
	buf := make([]float64, length)
	if pfor == nil || length < minParallelAlloc {
		return buf
	}
	pfor(allocParts, func(i, _ int) {
		lo := i * length / allocParts
		hi := (i + 1) * length / allocParts
		seg := buf[lo:hi]
		for j := range seg {
			seg[j] = 0
		}
	})
	return buf
}

// NewGrid1DParallel is NewGrid1D with first-touch buffer placement
// under pfor's worker mapping (nil pfor = plain allocation).
func NewGrid1DParallel(n, h int, pfor ParallelFor) *Grid1D {
	if n <= 0 || h < 0 {
		panic(fmt.Sprintf("grid: invalid Grid1D size n=%d h=%d", n, h))
	}
	g := &Grid1D{N: n, H: h}
	g.Buf[0] = AllocParallel(n+2*h, pfor)
	g.Buf[1] = AllocParallel(n+2*h, pfor)
	return g
}

// NewGrid2DParallel is NewGrid2D with first-touch buffer placement
// under pfor's worker mapping (nil pfor = plain allocation).
func NewGrid2DParallel(nx, ny, hx, hy int, pfor ParallelFor) *Grid2D {
	g, total := layout2D(nx, ny, hx, hy)
	g.Buf[0] = AllocParallel(total, pfor)
	g.Buf[1] = AllocParallel(total, pfor)
	return g
}

// NewGrid3DParallel is NewGrid3D with first-touch buffer placement
// under pfor's worker mapping (nil pfor = plain allocation).
func NewGrid3DParallel(nx, ny, nz, hx, hy, hz int, pfor ParallelFor) *Grid3D {
	g, total := layout3D(nx, ny, nz, hx, hy, hz)
	g.Buf[0] = AllocParallel(total, pfor)
	g.Buf[1] = AllocParallel(total, pfor)
	return g
}
