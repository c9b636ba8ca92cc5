package core

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

func TestCoarseningFactor(t *testing.T) {
	cases := []struct {
		per   []int
		stage int
		want  int
	}{
		{nil, 0, 1},
		{nil, 3, 1},
		{[]int{5}, 0, 5},
		{[]int{5}, 2, 5}, // single entry is the uniform knob
		{[]int{2, 7}, 0, 2},
		{[]int{2, 7}, 1, 7},
		{[]int{2, 7}, 3, 7}, // short vector extends with its last entry
		{[]int{0}, 0, 1},    // below range clamps up
		{[]int{999}, 0, MaxCoarsen},
	}
	for _, c := range cases {
		got := Coarsening{PerStage: c.per}.Factor(c.stage)
		if got != c.want {
			t.Errorf("Factor(%v, stage %d) = %d, want %d", c.per, c.stage, got, c.want)
		}
	}
	if got := Uniform(9).Factor(4); got != 9 {
		t.Errorf("Uniform(9).Factor(4) = %d, want 9", got)
	}
}

func TestCoarseningValidate(t *testing.T) {
	base := Config{N: []int{32, 32}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}
	ok := base
	ok.Coarsen = Coarsening{PerStage: []int{1, MaxCoarsen, 3}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("legal vector rejected: %v", err)
	}
	for _, per := range [][]int{
		{1, 2, 3, 4},        // longer than d+1 slots
		{0},                 // below range
		{MaxCoarsen + 1, 1}, // above range
	} {
		bad := base
		bad.Coarsen = Coarsening{PerStage: per}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted coarsening %v", per)
		}
	}
}

func TestTasksSpanPartition(t *testing.T) {
	for _, nBlocks := range []int{0, 1, 2, 7, 64, 129} {
		for _, group := range []int{0, 1, 2, 3, 64, 999} {
			r := Region{Group: group, Blocks: make([]Block, nBlocks)}
			prev := 0
			for gi := 0; gi < r.Tasks(); gi++ {
				b0, b1 := r.Span(gi)
				if b0 != prev || b1 <= b0 || b1 > nBlocks {
					t.Fatalf("n=%d group=%d: span %d = [%d,%d) after %d", nBlocks, group, gi, b0, b1, prev)
				}
				if b1-b0 > r.groupSize() {
					t.Fatalf("n=%d group=%d: span %d wider than group", nBlocks, group, gi)
				}
				prev = b1
			}
			if prev != nBlocks {
				t.Fatalf("n=%d group=%d: spans cover %d of %d blocks", nBlocks, group, prev, nBlocks)
			}
		}
	}
}

// Regions must resolve Stage and Group from the config, merged,
// periodic or unmerged: Stage equals the popcount of every block's glued set, diamond
// regions take slot 0's factor, stage-i regions slot i's.
func TestRegionsCarryStageAndGroup(t *testing.T) {
	cfg := Config{
		N: []int{24, 24}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true,
		Coarsen: Coarsening{PerStage: []int{3, 5, 7}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, regions []Region) {
		t.Helper()
		for ri, r := range regions {
			want := cfg.Coarsen.Factor(r.Stage)
			if r.Diamond {
				want = cfg.Coarsen.Factor(0)
				if r.Stage != 0 {
					t.Fatalf("%s region %d: diamond with Stage=%d", name, ri, r.Stage)
				}
			}
			if r.Group != want {
				t.Fatalf("%s region %d (stage %d, diamond=%v): Group=%d, want %d",
					name, ri, r.Stage, r.Diamond, r.Group, want)
			}
			for bi := range r.Blocks {
				if r.Diamond {
					continue
				}
				if got := popcount(r.Blocks[bi].Glued); got != r.Stage {
					t.Fatalf("%s region %d block %d: glued popcount %d != Stage %d",
						name, ri, bi, got, r.Stage)
				}
			}
		}
	}
	check("merged", cfg.Regions(3*cfg.BT))
	per := cfg
	per.Periodic = true
	check("periodic", per.Regions(3*cfg.BT))
	un := cfg
	un.Merge = false
	check("unmerged", un.Regions(3*cfg.BT))
}

func popcount(g uint) int {
	n := 0
	for ; g != 0; g &= g - 1 {
		n++
	}
	return n
}

// Coarsening must be invisible in the output bits and in the exact
// points-updated count (Theorem 3.5 as seen by telemetry).
func TestCoarsenedRunBitwiseIdenticalAndExactPoints(t *testing.T) {
	const nx, ny, steps = 60, 52, 9
	run := func(per []int) *grid.Grid2D {
		g := grid.NewGrid2D(nx, ny, 1, 1)
		fill2D(g, 7)
		cfg := Config{N: []int{nx, ny}, Slopes: []int{1, 1}, BT: 3, Big: []int{12, 16}, Merge: true,
			Coarsen: Coarsening{PerStage: per}}
		pool := par.NewPool(3)
		defer pool.Close()
		if err := Run(g.View(), stencil.OneStage(stencil.Heat2D), mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		return g
	}
	base := run(nil)

	telemetry.Enable()
	defer telemetry.Disable()
	for _, per := range [][]int{{4}, {64}, {2, 5, 3}} {
		before := telemetry.PointsUpdated.Value()
		got := run(per)
		updated := telemetry.PointsUpdated.Value() - before
		if want := uint64(nx * ny * steps); updated != want {
			t.Fatalf("per=%v: points updated = %d, want exactly %d", per, updated, want)
		}
		for p := 0; p < 2; p++ {
			for i := range base.Buf[p] {
				if base.Buf[p][i] != got.Buf[p][i] {
					t.Fatalf("per=%v: buffer %d differs at %d (coarsening changed the numerics)", per, p, i)
				}
			}
		}
	}
}

// coarsenFuzzCase derives a legal configuration, step count and
// coarsening vector from fuzz bytes. Dimension count spans 1..3 and
// the vector exercises empty, short, uniform and clamped shapes.
func coarsenFuzzCase(a, b, c, d, e uint8) (Config, int) {
	dims := 1 + int(a)%3
	cfg := Config{
		N:      make([]int, dims),
		Slopes: make([]int, dims),
		Big:    make([]int, dims),
		BT:     1 + int(b)%3,
		Merge:  a&4 == 0,
	}
	n := int(e) % (dims + 2) // 0..dims+1 entries
	per := make([]int, n)
	for i := range per {
		per[i] = 1 + int(e>>uint(i))%5
	}
	if e&128 != 0 && n > 0 {
		per[0] = MaxCoarsen
	}
	cfg.Coarsen = Coarsening{PerStage: per}
	for k := 0; k < dims; k++ {
		cfg.Slopes[k] = 1
		minBig := 2 * cfg.BT
		cfg.Big[k] = minBig + int(c)%(minBig+2)
		cfg.N[k] = 4 + (int(d)+5*k)%18
	}
	steps := 1 + int(d>>2)%(2*cfg.BT+1)
	return cfg, steps
}

// replayGrouped replays the grouped dispatch exactly as the 1D/2D/3D
// executors schedule it — Span partition, groupPlan classification,
// hoisted representative bounds for interior blocks, ClippedBounds for
// the rest — and checks (a) the fast-path boxes are identical to the
// clipping oracle and (b) every domain point is updated exactly once
// per time step, in time order (Theorem 3.5), with coordinates wrapped
// mod N on a periodic config.
func replayGrouped(t *testing.T, cfg *Config, steps int) {
	t.Helper()
	d := cfg.Dims()
	total := 1
	strides := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		strides[k] = total
		total *= cfg.N[k]
	}
	cnt := make([]int, total)
	lo, hi := make([]int, d), make([]int, d)
	plo, phi := make([]int, d), make([]int, d)
	p := make([]int, d)
	relLo, relHi := make([]int, d), make([]int, d)

	for ri, r := range cfg.Regions(steps) {
		prev := 0
		for gi := 0; gi < r.Tasks(); gi++ {
			b0, b1 := r.Span(gi)
			if b0 != prev || b1 <= b0 || b1 > len(r.Blocks) {
				t.Fatalf("region %d: span %d = [%d,%d) after %d", ri, gi, b0, b1, prev)
			}
			prev = b1
			uniform, interior := cfg.groupPlan(&r, b0, b1, plo, phi, relLo, relHi)
			for tt := r.T0; tt < r.T1; tt++ {
				empty := false
				if uniform {
					rep := &r.Blocks[b0]
					cfg.Bounds(&r, rep, tt, plo, phi)
					for k := 0; k < d; k++ {
						relLo[k], relHi[k] = plo[k]-rep.Origin[k], phi[k]-rep.Origin[k]
						if plo[k] >= phi[k] {
							empty = true
						}
					}
				}
				for bi := b0; bi < b1; bi++ {
					blk := &r.Blocks[bi]
					ok := cfg.ClippedBounds(&r, blk, tt, lo, hi)
					if uniform && interior&(1<<uint(bi-b0)) != 0 {
						// The executor takes the hoisted fast path here: its
						// box must agree with the clipping oracle bit for bit.
						if empty {
							if ok {
								t.Fatalf("region %d block %d t=%d: group empty but oracle box non-empty", ri, bi, tt)
							}
						} else {
							if !ok {
								t.Fatalf("region %d block %d t=%d: interior block clipped empty", ri, bi, tt)
							}
							for k := 0; k < d; k++ {
								if lo[k] != blk.Origin[k]+relLo[k] || hi[k] != blk.Origin[k]+relHi[k] {
									t.Fatalf("region %d block %d t=%d dim %d: fast path [%d,%d) != oracle [%d,%d)",
										ri, bi, tt, k, blk.Origin[k]+relLo[k], blk.Origin[k]+relHi[k], lo[k], hi[k])
								}
							}
						}
					}
					if !ok {
						continue
					}
					err := forBox(lo, hi, p, func() error {
						i := 0
						for k := 0; k < d; k++ {
							v := p[k]
							if cfg.Periodic {
								v = wrap(v, cfg.N[k])
							}
							i += v * strides[k]
						}
						if cnt[i] != tt {
							t.Fatalf("region %d block %d: point %v updated to step %d but has count %d", ri, bi, p, tt+1, cnt[i])
						}
						cnt[i]++
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if prev != len(r.Blocks) {
			t.Fatalf("region %d: spans cover %d of %d blocks", ri, prev, len(r.Blocks))
		}
	}
	for i := range cnt {
		if cnt[i] != steps {
			unflat(i, strides, p, cfg.N)
			t.Fatalf("point %v finished with count %d, want %d (exact tessellation violated)", p, cnt[i], steps)
		}
	}
}

// FuzzCoarsenGeometry is the property harness for coarsened schedule
// geometry: over randomized dimension counts, domain/tile sizes,
// per-stage factor vectors and boundary handling, the grouped dispatch
// must (a) partition every region's block list exactly, (b) take the
// hoisted-bounds fast path only where it reproduces ClippedBounds bit
// for bit, and (c) update every grid point exactly once per time step
// (Theorem 3.5).
func FuzzCoarsenGeometry(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(40), uint8(130), uint8(1))
	f.Add(uint8(2), uint8(2), uint8(5), uint8(17), uint8(77), uint8(2))
	f.Add(uint8(5), uint8(0), uint8(1), uint8(200), uint8(255), uint8(3))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(90), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, pb uint8) {
		cfg, steps := coarsenFuzzCase(a, b, c, d, e)
		if pb&1 == 1 {
			// Periodic wrap-around: stretch the domain to an exact
			// multiple of the lattice period, as Validate requires.
			cfg.Periodic = true
			for k := range cfg.N {
				cfg.N[k] = cfg.Spacing(k) * (1 + int(pb>>1)%2)
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		replayGrouped(t, &cfg, steps)
	})
}

// TestCoarsenGeometryQuick drives the same property as the fuzz target
// over a fixed pseudo-random sample, so `go test` exercises it without
// -fuzz.
func TestCoarsenGeometryQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 40; it++ {
		a, b := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		c, d := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		e, pb := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		cfg, steps := coarsenFuzzCase(a, b, c, d, e)
		if pb&1 == 1 {
			cfg.Periodic = true
			for k := range cfg.N {
				cfg.N[k] = cfg.Spacing(k) * (1 + int(pb>>1)%2)
			}
		}
		if cfg.Validate() != nil {
			continue
		}
		replayGrouped(t, &cfg, steps)
	}
}
