package core

import (
	"testing"

	"tessellate/internal/stencil"
)

// The schedule cache key must separate every geometric degree of
// freedom — two configs that generate different region lists must
// never share an entry.
func TestScheduleKeyIdentity(t *testing.T) {
	base := Config{N: []int{40, 40}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}
	key := scheduleKey(&base, 8)

	mutations := []func(c *Config) int{
		func(c *Config) int { c.Slopes = []int{2, 2}; c.Big = []int{16, 16}; return 8 },
		func(c *Config) int { c.Slopes = []int{1, 2}; c.Big = []int{8, 16}; return 8 },
		func(c *Config) int { c.BT = 4; c.Big = []int{16, 16}; return 8 },
		func(c *Config) int { c.Big = []int{12, 8}; return 8 },
		func(c *Config) int { c.N = []int{40, 41}; return 8 },
		func(c *Config) int { c.Merge = false; return 8 },
		func(c *Config) int { c.Coarsen = Coarsening{PerStage: []int{2}}; return 8 },
		func(c *Config) int { c.Periodic = true; return 8 },
		func(c *Config) int { return 9 }, // steps
	}
	for i, mut := range mutations {
		c := base
		c.N = append([]int(nil), base.N...)
		c.Slopes = append([]int(nil), base.Slopes...)
		c.Big = append([]int(nil), base.Big...)
		steps := mut(&c)
		if scheduleKey(&c, steps) == key {
			t.Errorf("mutation %d did not change the schedule key", i)
		}
	}
}

// Schedules are kernel-agnostic: the key holds geometry only, so a
// pipeline whose COMPOUND slope equals a single-stage stencil's slope
// shares that stencil's cached schedule. This sharing is intentional
// and safe — a schedule is a pure function of (N, slopes, BT, Big,
// merge, coarsening, steps), and the pipeline executors drive the same
// region list through their own fused stage dispatch.
func TestScheduleKeySharesGeometryAcrossKernels(t *testing.T) {
	p := &stencil.Pipeline{Name: "rk2-heat", Stages: []stencil.Stage{
		{Spec: stencil.Heat1D, In: 0},
		{Spec: stencil.Heat1D, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	compound := p.Slopes()
	if compound[0] != stencil.P1D5.Slopes[0] {
		t.Fatalf("test premise broken: compound %v != 1d5p slope %v", compound, stencil.P1D5.Slopes)
	}
	pipeCfg := Config{N: []int{64}, Slopes: compound, BT: 2, Big: []int{12}, Merge: true}
	specCfg := Config{N: []int{64}, Slopes: stencil.P1D5.Slopes, BT: 2, Big: []int{12}, Merge: true}
	if scheduleKey(&pipeCfg, 6) != scheduleKey(&specCfg, 6) {
		t.Fatal("equal geometry under different kernels should share a schedule key")
	}
	cache := NewScheduleCache(4)
	s1, err := cache.Get(&pipeCfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Get(&specCfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("equal-geometry configs built two schedules instead of sharing one")
	}
}

// Periodic and non-periodic configs of one shape build different
// region lists (one lattice period against every block touching the
// domain), so they must never share a cache entry.
func TestScheduleCacheKeySeparatesPeriodic(t *testing.T) {
	plain := Config{N: []int{48, 48}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}
	per := plain
	per.Periodic = true
	if scheduleKey(&plain, 8) == scheduleKey(&per, 8) {
		t.Fatal("periodic and non-periodic configs share a schedule key")
	}
	cache := NewScheduleCache(4)
	s1, err := cache.Get(&plain, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Get(&per, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 || !s2.Config().Periodic || s1.Config().Periodic {
		t.Fatal("the cache returned one schedule for a periodic and a non-periodic config")
	}
}
