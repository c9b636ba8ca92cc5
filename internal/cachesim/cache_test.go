package cachesim

import (
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

func mustCache(t *testing.T, size, line, assoc int) *Cache {
	t.Helper()
	c, err := NewCache(size, line, assoc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := mustCache(t, 1024, 64, 2) // 8 sets x 2 ways
	c.AccessLine(0, false)
	c.AccessLine(0, false)
	if c.Misses != 1 || c.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", c.Misses, c.Hits)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, 1024, 64, 2) // 8 sets; lines 0, 8, 16 map to set 0
	c.AccessLine(0, false)
	c.AccessLine(8, false)
	c.AccessLine(0, false)  // 0 becomes MRU
	c.AccessLine(16, false) // evicts 8 (LRU)
	c.AccessLine(0, false)  // still resident
	if c.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (0 re-hit twice)", c.Hits)
	}
	c.AccessLine(8, false) // must miss again
	if c.Misses != 4 {
		t.Fatalf("misses = %d, want 4", c.Misses)
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, 1024, 64, 2)
	c.AccessLine(0, true) // dirty
	c.AccessLine(8, false)
	c.AccessLine(16, false) // evicts dirty 0
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
	c.AccessLine(24, false) // evicts clean 8
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want still 1", c.Writebacks)
	}
}

func TestCacheFlushWritebacks(t *testing.T) {
	c := mustCache(t, 1024, 64, 2)
	c.AccessLine(3, true)
	c.AccessLine(5, true)
	c.AccessLine(7, false)
	c.FlushWritebacks()
	if c.Writebacks != 2 {
		t.Fatalf("writebacks after flush = %d, want 2", c.Writebacks)
	}
	c.FlushWritebacks() // idempotent: lines now clean
	if c.Writebacks != 2 {
		t.Fatalf("second flush added writebacks: %d", c.Writebacks)
	}
}

func TestAccessRangeTouchesAllCoveringLines(t *testing.T) {
	c := mustCache(t, 4096, 64, 4) // 8 words per line
	c.AccessRange(6, 18, false)    // words 6..17 → lines 0, 1, 2
	if c.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", c.Accesses)
	}
	c.AccessRange(5, 5, false) // empty
	if c.Accesses != 3 {
		t.Fatal("empty range touched the cache")
	}
}

func TestTrafficBytes(t *testing.T) {
	c := mustCache(t, 1024, 64, 2)
	c.AccessLine(0, true)
	c.AccessLine(1, false)
	c.FlushWritebacks()
	if got := c.TrafficBytes(); got != 3*64 {
		t.Fatalf("traffic = %d, want 192 (2 fills + 1 writeback)", got)
	}
}

func TestNewCacheRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct{ size, line, assoc int }{
		{1024, 7, 2}, {1024, 0, 2}, {1000, 64, 2}, {1024, 64, 0}, {0, 64, 1},
	} {
		if _, err := NewCache(tc.size, tc.line, tc.assoc); err == nil {
			t.Errorf("NewCache(%v) accepted", tc)
		}
	}
}

// A cold cache larger than the whole working set must see exactly the
// compulsory traffic: every touched line once, plus final writebacks.
func TestCompulsoryTrafficNaive1D(t *testing.T) {
	g := grid.NewGrid1D(512, 1)
	c := mustCache(t, 1<<20, 64, 8)
	ts := NewTracingSpec(stencil.Heat1D, c, g.Buf[0], g.Buf[1])
	pool := par.NewPool(1)
	defer pool.Close()
	naive.Run1D(g, ts, 4, pool)
	c.FlushWritebacks()
	// Working set: two buffers of 514 words = 65 lines each at most.
	maxLines := int64(2 * (514/8 + 2))
	if c.Misses > maxLines {
		t.Fatalf("misses = %d, want <= %d for an over-sized cache", c.Misses, maxLines)
	}
	if c.Hits == 0 {
		t.Fatal("expected reuse hits")
	}
}

// With a cache far smaller than one grid pass, the naive schedule must
// stream the grid every time step, while a time-tiled (tessellation)
// schedule must not. This is the qualitative content of Fig. 12.
func TestTimeTilingReducesTraffic(t *testing.T) {
	const n, steps = 16384, 16
	mk := func() (*grid.Grid1D, *Cache) {
		g := grid.NewGrid1D(n, 1)
		return g, mustCache(t, 16*1024, 64, 8) // 16 KiB cache vs 256 KiB buffers
	}
	pool := par.NewPool(1)
	defer pool.Close()

	gn, cn := mk()
	naive.Run1D(gn, NewTracingSpec(stencil.Heat1D, cn, gn.Buf[0], gn.Buf[1]), steps, pool)
	cn.FlushWritebacks()

	gt, ct := mk()
	cfg := core.Config{N: []int{n}, Slopes: []int{1}, BT: steps, Big: []int{64 * steps}, Merge: true}
	if err := core.Run1D(gt, stencil.OneStage(NewTracingSpec(stencil.Heat1D, ct, gt.Buf[0], gt.Buf[1])), mustSchedule(t, &cfg, steps), pool, nil, nil); err != nil {
		t.Fatal(err)
	}
	ct.FlushWritebacks()

	if ct.TrafficBytes()*2 >= cn.TrafficBytes() {
		t.Fatalf("tessellation traffic %d not < half of naive %d", ct.TrafficBytes(), cn.TrafficBytes())
	}
}

// mustSchedule builds the core schedule for (cfg, steps), failing the
// test on error.
func mustSchedule(t testing.TB, cfg *core.Config, steps int) *core.Schedule {
	t.Helper()
	sched, err := core.NewSchedule(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}
