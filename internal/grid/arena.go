package grid

import (
	"sync"

	"tessellate/internal/telemetry"
)

// Arena is a pool of grid buffers for steady-state serving: checking a
// grid out of a warm arena reuses buffers instead of allocating, so a
// server re-running the same grid shape millions of times does zero
// large allocations after warmup. Buffers are pooled by flat length —
// the only property that matters for reuse — so one arena serves any
// mix of shapes. Fresh buffers are first-touched under the arena's
// ParallelFor (the same worker mapping the owning engine computes
// with), so on NUMA machines each worker's share of a pooled grid
// stays on that worker's memory node across jobs.
//
// Checked-out grids have undefined contents (stale values from the
// previous job); callers must fully initialise the interior (Fill) and
// halo (SetBoundary) before running. Step is reset to 0 at checkout.
//
// An Arena is safe for concurrent use.
type Arena struct {
	mu   sync.Mutex
	pfor ParallelFor
	free map[int][][]float64
	// maxPerLen bounds each per-length free list so a burst of odd
	// shapes cannot pin unbounded memory.
	maxPerLen int
	// maxBytes bounds the total pooled memory across all lengths:
	// maxPerLen alone would let a tenant cycling through many distinct
	// near-limit shapes park maxPerLen large buffers per length.
	// totalBytes tracks the pooled sum under mu.
	maxBytes   int64
	totalBytes int64

	hits, misses uint64
}

// DefaultArenaDepth is the per-length free-list bound of a
// zero-configured arena: enough for a few grids of one shape in
// flight per engine, small enough that retired shapes cost little.
const DefaultArenaDepth = 8

// DefaultArenaMaxBytes is the total pooled-memory bound of a
// zero-configured arena: room for a steady-state mix of a few large
// shapes, small enough that one arena cannot pin a machine's memory.
const DefaultArenaMaxBytes int64 = 1 << 30

// NewArena returns an empty arena whose fresh buffers are
// first-touched under pfor (nil = plain allocation). maxPerLen bounds
// each per-length free list (<= 0 selects DefaultArenaDepth); maxBytes
// bounds the total pooled memory (<= 0 selects DefaultArenaMaxBytes).
func NewArena(pfor ParallelFor, maxPerLen int, maxBytes int64) *Arena {
	if maxPerLen <= 0 {
		maxPerLen = DefaultArenaDepth
	}
	if maxBytes <= 0 {
		maxBytes = DefaultArenaMaxBytes
	}
	return &Arena{pfor: pfor, free: make(map[int][][]float64), maxPerLen: maxPerLen, maxBytes: maxBytes}
}

// buffer returns a pooled buffer of exactly the given length, or
// allocates a fresh one.
func (a *Arena) buffer(length int) []float64 {
	a.mu.Lock()
	list := a.free[length]
	if n := len(list); n > 0 {
		buf := list[n-1]
		list[n-1] = nil
		if n == 1 {
			delete(a.free, length)
		} else {
			a.free[length] = list[:n-1]
		}
		a.totalBytes -= int64(length) * 8
		a.hits++
		a.mu.Unlock()
		telemetry.ArenaHit.Inc()
		return buf
	}
	a.misses++
	a.mu.Unlock()
	telemetry.ArenaMiss.Inc()
	return AllocParallel(length, a.pfor)
}

// put returns a buffer to the pool, dropping it if the per-length list
// is full. When pooling it would push the arena past its total-bytes
// bound, buffers of other lengths are evicted largest-first — the
// incoming buffer belongs to the shape most recently run, so it is the
// best bet for the current traffic mix; if eviction cannot make room
// the buffer is dropped for the collector.
func (a *Arena) put(buf []float64) {
	if buf == nil {
		return
	}
	size := int64(len(buf)) * 8
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free[len(buf)]) >= a.maxPerLen || size > a.maxBytes {
		return
	}
	for a.totalBytes+size > a.maxBytes {
		if !a.evictLargestLocked(len(buf)) {
			return
		}
	}
	a.free[len(buf)] = append(a.free[len(buf)], buf)
	a.totalBytes += size
}

// evictLargestLocked drops one pooled buffer from the largest-length
// free list other than keep, reporting whether anything was evicted.
// Callers must hold a.mu.
func (a *Arena) evictLargestLocked(keep int) bool {
	largest := -1
	for length, list := range a.free {
		if length != keep && len(list) > 0 && length > largest {
			largest = length
		}
	}
	if largest < 0 {
		return false
	}
	list := a.free[largest]
	n := len(list)
	list[n-1] = nil
	if n == 1 {
		delete(a.free, largest)
	} else {
		a.free[largest] = list[:n-1]
	}
	a.totalBytes -= int64(largest) * 8
	return true
}

// Grid1D checks out a 1D grid of the given shape. Contents are
// undefined; Step is 0.
func (a *Arena) Grid1D(n, h int) *Grid1D {
	if n <= 0 || h < 0 {
		panic("grid: invalid Grid1D size")
	}
	g := &Grid1D{N: n, H: h}
	total := n + 2*h
	g.Buf[0] = a.buffer(total)
	g.Buf[1] = a.buffer(total)
	return g
}

// Grid2D checks out a 2D grid of the given shape, laid out as
// NewGrid2D lays it out. Contents, row padding included, are
// undefined; Step is 0.
func (a *Arena) Grid2D(nx, ny, hx, hy int) *Grid2D {
	g, total := layout2D(nx, ny, hx, hy)
	g.Buf[0] = a.buffer(total)
	g.Buf[1] = a.buffer(total)
	return g
}

// Grid3D checks out a 3D grid of the given shape. Contents are
// undefined; Step is 0.
func (a *Arena) Grid3D(nx, ny, nz, hx, hy, hz int) *Grid3D {
	g, total := layout3D(nx, ny, nz, hx, hy, hz)
	g.Buf[0] = a.buffer(total)
	g.Buf[1] = a.buffer(total)
	return g
}

// Release returns a grid's buffers to the arena. The grid must not be
// used afterwards. Any of the three concrete grid types is accepted;
// other values (including nil) are ignored.
func (a *Arena) Release(g any) {
	switch g := g.(type) {
	case *Grid1D:
		if g != nil {
			a.put(g.Buf[0])
			a.put(g.Buf[1])
			g.Buf[0], g.Buf[1] = nil, nil
		}
	case *Grid2D:
		if g != nil {
			a.put(g.Buf[0])
			a.put(g.Buf[1])
			g.Buf[0], g.Buf[1] = nil, nil
		}
	case *Grid3D:
		if g != nil {
			a.put(g.Buf[0])
			a.put(g.Buf[1])
			g.Buf[0], g.Buf[1] = nil, nil
		}
	}
}

// Stats returns the lifetime checkout hit and miss counts (one
// checkout = one buffer, so a double-buffered grid costs two).
func (a *Arena) Stats() (hits, misses uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hits, a.misses
}

// Pooled returns the number of buffers currently parked in the arena.
func (a *Arena) Pooled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, list := range a.free {
		n += len(list)
	}
	return n
}

// PooledBytes returns the total memory currently parked in the arena.
func (a *Arena) PooledBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totalBytes
}
