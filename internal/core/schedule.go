package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"tessellate/internal/telemetry"
)

// Schedule reuse. cfg.Regions(steps) is a pure function of the
// configuration and the step count: it depends on neither the grid
// contents nor the grid's Step parity (buffer parity is resolved at
// execution time). A serving workload that re-runs the same
// (N, Slopes, BT, Big, Merge, Coarsen, Periodic, steps) shape millions
// of times therefore never needs to rebuild the block lists — it can
// precompute a Schedule once and replay it, and because executors only
// ever read regions, one Schedule may be shared by any number of
// concurrent runs on different grids and pools.

// Schedule is a precomputed, immutable tessellation schedule: a
// validated Config plus the region list Regions(steps) would produce.
// Build one with NewSchedule (or fetch a shared one from a
// ScheduleCache) and execute it with Run or RunND. A
// Schedule is safe for concurrent use by multiple executors.
type Schedule struct {
	cfg     Config
	steps   int
	regions []Region
}

// NewSchedule validates cfg and precomputes the complete region list
// for advancing the domain by steps time steps. The config is deep
// copied; later mutation of cfg does not affect the schedule.
func NewSchedule(cfg *Config, steps int) (*Schedule, error) {
	if steps < 0 {
		return nil, fmt.Errorf("core: negative steps %d", steps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := Config{
		N:      append([]int(nil), cfg.N...),
		Slopes: append([]int(nil), cfg.Slopes...),
		BT:     cfg.BT,
		Big:    append([]int(nil), cfg.Big...),
		Merge:  cfg.Merge,
		Coarsen: Coarsening{
			PerStage: append([]int(nil), cfg.Coarsen.PerStage...),
		},
		Periodic: cfg.Periodic,
	}
	return &Schedule{cfg: c, steps: steps, regions: c.Regions(steps)}, nil
}

// Steps returns the step count the schedule advances a grid by.
func (s *Schedule) Steps() int { return s.steps }

// Config returns the schedule's validated configuration. Callers must
// not mutate it (the schedule's regions were derived from it).
func (s *Schedule) Config() *Config { return &s.cfg }

// Regions returns the precomputed region list. Callers must not
// mutate the regions or their block slices.
func (s *Schedule) Regions() []Region { return s.regions }

// ScheduleCache memoizes Schedules by their full geometric key
// (N, Slopes, BT, Big, Merge, Coarsen, Periodic, steps). It is safe
// for concurrent use; at most maxEntries schedules are retained, evicted
// in insertion order (steady-state serving traffic re-uses a handful
// of shapes, so FIFO is as good as LRU and needs no bookkeeping on
// the hit path). Lookups are counted in the
// tess_sched_cache_lookups_total telemetry family.
type ScheduleCache struct {
	mu    sync.RWMutex
	m     map[string]*Schedule
	order []string
	max   int

	hits, misses atomic.Uint64
}

// DefaultScheduleCacheSize bounds a zero-configured cache; 256 shapes
// is far beyond any realistic steady-state serving mix.
const DefaultScheduleCacheSize = 256

// NewScheduleCache returns an empty cache retaining at most maxEntries
// schedules (maxEntries <= 0 selects DefaultScheduleCacheSize).
func NewScheduleCache(maxEntries int) *ScheduleCache {
	if maxEntries <= 0 {
		maxEntries = DefaultScheduleCacheSize
	}
	return &ScheduleCache{m: make(map[string]*Schedule), max: maxEntries}
}

// scheduleKey renders the full geometric identity of (cfg, steps).
// Built with strconv appends rather than fmt so a cache hit costs one
// small allocation (the key), keeping the serving hot path out of the
// large-allocation regime the arena and cache exist to avoid.
func scheduleKey(cfg *Config, steps int) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(b, int64(steps), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.BT), 10)
	if cfg.Merge {
		b = append(b, 'm')
	}
	if cfg.Periodic {
		b = append(b, 'p')
	}
	for _, v := range cfg.N {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, '|')
	for _, v := range cfg.Slopes {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, '|')
	for _, v := range cfg.Big {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, '|')
	for _, v := range cfg.Coarsen.PerStage {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Get returns the cached schedule for (cfg, steps), building and
// inserting it on first use. Concurrent callers may race to build the
// same schedule; exactly one insertion wins and the duplicates are
// discarded (schedules are immutable, so which copy wins is
// irrelevant).
func (c *ScheduleCache) Get(cfg *Config, steps int) (*Schedule, error) {
	key := scheduleKey(cfg, steps)
	c.mu.RLock()
	s, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		telemetry.SchedCacheHit.Inc()
		return s, nil
	}
	built, err := NewSchedule(cfg, steps)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.m[key]; ok {
		// Lost the build race: count it as a hit (no recompute was
		// needed by the winner) and share the winner's schedule.
		c.mu.Unlock()
		c.hits.Add(1)
		telemetry.SchedCacheHit.Inc()
		return prev, nil
	}
	c.misses.Add(1)
	if len(c.order) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = built
	c.order = append(c.order, key)
	c.mu.Unlock()
	telemetry.SchedCacheMiss.Inc()
	return built, nil
}

// Len returns the number of cached schedules.
func (c *ScheduleCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Stats returns the lifetime hit and miss counts.
func (c *ScheduleCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
