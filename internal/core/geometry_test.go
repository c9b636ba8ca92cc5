package core

import (
	"math/bits"
	"reflect"
	"testing"

	"tessellate/internal/stencil"
)

// TestRegionStructureMerged checks the synchronization count of §4.3:
// a merged schedule has d regions per phase (1 diamond + d-1 middle
// stages), an unmerged one d+1.
func TestRegionStructureMerged(t *testing.T) {
	for d := 1; d <= 3; d++ {
		n := make([]int, d)
		slopes := make([]int, d)
		big := make([]int, d)
		for k := 0; k < d; k++ {
			n[k] = 24
			slopes[k] = 1
			big[k] = 8
		}
		bt := 2
		steps := 4 * bt // four full phases

		merged := Config{N: n, Slopes: slopes, BT: bt, Big: big, Merge: true}
		rs := merged.Regions(steps)
		// Windows w = -1..3 (w*BT < steps): 5 windows; the last window's
		// middle stages are empty (t0 >= t1), so regions =
		// 5 diamonds + 4*(d-1) middle stages.
		wantMerged := 5 + 4*(d-1)
		if len(rs) != wantMerged {
			t.Errorf("d=%d merged: %d regions, want %d", d, len(rs), wantMerged)
		}
		if got := merged.SyncsPerPhase(); got != d {
			t.Errorf("d=%d merged: SyncsPerPhase = %d, want %d", d, got, d)
		}

		unmerged := merged
		unmerged.Merge = false
		rs = unmerged.Regions(steps)
		if want := 4 * (d + 1); len(rs) != want {
			t.Errorf("d=%d unmerged: %d regions, want %d", d, len(rs), want)
		}
		if got := unmerged.SyncsPerPhase(); got != d+1 {
			t.Errorf("d=%d unmerged: SyncsPerPhase = %d, want %d", d, got, d+1)
		}
	}
}

// TestBlockSharingAcrossPhases verifies the schedule's O(blocks) memory
// claim: regions of equal parity and kind share the same block slice.
func TestBlockSharingAcrossPhases(t *testing.T) {
	cfg := Config{N: []int{48, 48}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}
	rs := cfg.Regions(10 * cfg.BT)
	var diamonds [2][]Block
	for _, r := range rs {
		if !r.Diamond {
			continue
		}
		parity := (r.Ref / cfg.BT) & 1
		if diamonds[parity] == nil {
			diamonds[parity] = r.Blocks
			continue
		}
		if &diamonds[parity][0] != &r.Blocks[0] {
			t.Fatal("diamond regions of equal parity do not share block storage")
		}
	}
}

// TestBlockCountsMatchTable1 checks on a clean periodic lattice that
// stage i has C(d,i) times as many blocks as stage 0 (paper: "The
// number of B_i blocks is C(d,i) times larger than the number of B_0
// blocks").
func TestBlockCountsMatchTable1(t *testing.T) {
	for d := 1; d <= 3; d++ {
		n := make([]int, d)
		slopes := make([]int, d)
		big := make([]int, d)
		for k := 0; k < d; k++ {
			slopes[k] = 1
			big[k] = 6
		}
		cfg := Config{N: n, Slopes: slopes, BT: 2, Big: big, Merge: true, Periodic: true}
		cells := 3 // lattice cells per dimension
		for k := 0; k < d; k++ {
			n[k] = cells * cfg.Spacing(k)
		}
		rs := cfg.Regions(cfg.BT)
		b0 := 1
		for k := 0; k < d; k++ {
			b0 *= cells
		}
		// Region 0 is the diamond region: B_d (== B_0 count).
		if len(rs[0].Blocks) != b0 {
			t.Errorf("d=%d: %d diamond blocks, want %d", d, len(rs[0].Blocks), b0)
		}
		// Middle regions: stage i has C(d,i)*b0 blocks.
		for i := 1; i < d; i++ {
			if got, want := len(rs[i].Blocks), Binom(d, i)*b0; got != want {
				t.Errorf("d=%d stage %d: %d blocks, want %d", d, i, got, want)
			}
		}
	}
}

// TestOrientations pins the orientation enumeration.
func TestOrientations(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for i := 0; i <= d; i++ {
			os := orientations(d, i)
			if len(os) != Binom(d, i) {
				t.Errorf("orientations(%d,%d): %d masks, want C(%d,%d)=%d", d, i, len(os), d, i, Binom(d, i))
			}
			for _, g := range os {
				if bits.OnesCount(g) != i {
					t.Errorf("orientations(%d,%d) contains mask %b", d, i, g)
				}
			}
		}
	}
}

// TestFloorDiv pins floor semantics for negative operands, which the
// lattice enumeration depends on.
func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 3}, {-7, 2, -4}, {-8, 2, -4}, {0, 5, 0}, {-1, 5, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestDefaultConfigAlwaysValid fuzzes DefaultConfig over many shapes.
func TestDefaultConfigAlwaysValid(t *testing.T) {
	shapes := [][]int{
		{5}, {16}, {1000000}, {7, 9}, {100, 100}, {6000, 6000},
		{16, 16, 16}, {256, 256, 256}, {5, 200, 13},
	}
	for _, n := range shapes {
		slopes := make([]int, len(n))
		for k := range slopes {
			slopes[k] = 1 + k%2
		}
		cfg := DefaultConfig(n, slopes)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig(%v, %v) invalid: %v", n, slopes, err)
		}
	}
}

// TestNewConfigTileShape pins the one Options→Config rule the Engine
// and the server share. A 2D run with one stencil stage and no Block
// gets an L1 tile, max(2·BT·slope, 32) × max(2·BT·slope, 64) at a
// default BT of 16/slope; every other run gets the §4.2 shape 8·BT·slope
// with the unit-stride dimension at 16·BT·slope at a default BT of 16.
// Both are clamped to the domain; an explicit Block, NoMerge and
// coarsening win.
func TestNewConfigTileShape(t *testing.T) {
	cases := []struct {
		n, slopes []int
		stages    int
		bt        int
		block     []int
		noMerge   bool
		coarsen   []int
		wantBT    int
		wantBig   []int
	}{
		// L1 branch: 2D, one stencil stage, no Block.
		{n: []int{128, 128}, slopes: []int{1, 1}, stages: 1, wantBT: 16, wantBig: []int{32, 64}},
		{n: []int{1024, 1024}, slopes: []int{1, 1}, stages: 1, wantBT: 16, wantBig: []int{32, 64}},
		{n: []int{128, 128}, slopes: []int{2, 2}, stages: 1, wantBT: 8, wantBig: []int{32, 64}},
		{n: []int{128, 128}, slopes: []int{1, 1}, stages: 1, bt: 16, wantBT: 16, wantBig: []int{32, 64}},
		{n: []int{128, 128}, slopes: []int{1, 1}, stages: 1, bt: 32, wantBT: 32, wantBig: []int{64, 64}},
		{n: []int{128, 128}, slopes: []int{2, 2}, stages: 1, bt: 8, wantBT: 8, wantBig: []int{32, 64}},
		{n: []int{512, 512}, slopes: []int{2, 2}, stages: 1, bt: 16, wantBT: 16, wantBig: []int{64, 64}},
		{n: []int{128, 128}, slopes: []int{1, 1}, stages: 1, bt: 2, wantBT: 2, wantBig: []int{32, 64}},
		{n: []int{37, 129}, slopes: []int{1, 1}, stages: 1, wantBT: 8, wantBig: []int{32, 64}},
		{n: []int{203, 157}, slopes: []int{1, 1}, stages: 1, wantBT: 16, wantBig: []int{32, 64}},
		{n: []int{21, 51}, slopes: []int{1, 1}, stages: 1, wantBT: 4, wantBig: []int{20, 50}},
		{n: []int{40, 25}, slopes: []int{1, 1}, stages: 1, bt: 4, wantBT: 4, wantBig: []int{32, 24}},
		{n: []int{10, 10}, slopes: []int{1, 1}, stages: 1, wantBT: 2, wantBig: []int{10, 10}},
		{n: []int{10, 10}, slopes: []int{1, 1}, stages: 1, bt: 8, wantBT: 8, wantBig: []int{16, 16}},
		{n: []int{64, 64}, slopes: []int{1, 1}, stages: 1, bt: 2, block: []int{10}, wantBT: 2, wantBig: []int{32, 64}},
		{n: []int{64, 64}, slopes: []int{1, 1}, stages: 1, bt: 2, noMerge: true, coarsen: []int{2, 1, 3}, wantBT: 2, wantBig: []int{32, 64}},
		// §4.2 shape: two stencil stages (rk2), 1D, 3D.
		{n: []int{1024, 1024}, slopes: []int{2, 2}, stages: 2, bt: 8, wantBT: 8, wantBig: []int{128, 256}},
		{n: []int{1024, 1024}, slopes: []int{2, 2}, stages: 2, wantBT: 16, wantBig: []int{256, 512}},
		{n: []int{40, 40}, slopes: []int{1, 1}, stages: 2, bt: 4, wantBT: 4, wantBig: []int{32, 40}},
		{n: []int{41, 25}, slopes: []int{1, 1}, stages: 2, bt: 4, wantBT: 4, wantBig: []int{32, 24}},
		{n: []int{100, 100}, slopes: []int{1, 1}, stages: 2, wantBT: 16, wantBig: []int{100, 100}},
		{n: []int{1000}, slopes: []int{1}, stages: 1, bt: 4, wantBT: 4, wantBig: []int{32}},
		{n: []int{1000}, slopes: []int{1}, stages: 1, wantBT: 16, wantBig: []int{128}},
		{n: []int{64, 64, 64}, slopes: []int{1, 1, 1}, stages: 1, bt: 2, wantBT: 2, wantBig: []int{16, 16, 32}},
		{n: []int{16, 16, 16}, slopes: []int{1, 1, 1}, stages: 1, bt: 2, wantBT: 2, wantBig: []int{16, 16, 16}},
		{n: []int{32, 32, 32}, slopes: []int{1, 1, 1}, stages: 1, wantBT: 8, wantBig: []int{32, 32, 32}},
		// An explicit Block wins in either branch.
		{n: []int{64, 64}, slopes: []int{1, 1}, stages: 1, bt: 4, block: []int{10, 12}, wantBT: 4, wantBig: []int{10, 12}},
		{n: []int{64, 64}, slopes: []int{1, 1}, stages: 1, block: []int{40, 48}, wantBT: 16, wantBig: []int{40, 48}},
		{n: []int{64, 64}, slopes: []int{1, 1}, stages: 2, block: []int{40, 48}, wantBT: 16, wantBig: []int{40, 48}},
	}
	for _, c := range cases {
		cfg := NewConfig(c.n, c.slopes, c.stages, c.bt, c.block, c.noMerge, c.coarsen)
		want := Config{N: c.n, Slopes: c.slopes, BT: c.wantBT, Big: c.wantBig, Merge: !c.noMerge}
		if c.coarsen != nil {
			want.Coarsen = Coarsening{PerStage: c.coarsen}
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("NewConfig(%v, %v, stages=%d, bt=%d, block=%v, noMerge=%v, coarsen=%v) = %+v, want %+v",
				c.n, c.slopes, c.stages, c.bt, c.block, c.noMerge, c.coarsen, cfg, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("NewConfig(%v, %v, stages=%d, bt=%d, block=%v) invalid: %v", c.n, c.slopes, c.stages, c.bt, c.block, err)
		}
		if c.stages == 1 && c.bt == 0 && c.block == nil && !reflect.DeepEqual(DefaultConfig(c.n, c.slopes), cfg) {
			t.Errorf("DefaultConfig(%v, %v) != NewConfig with one stage and nothing set", c.n, c.slopes)
		}
	}
	// A pipeline's stencil-stage count picks the branch: a stencil
	// followed by blends tiles like a plain spec, rk2 keeps §4.2.
	n := []int{1024, 1024}
	for _, c := range []struct {
		p       *stencil.Pipeline
		wantBig []int
	}{
		{stencil.OneStage(stencil.Heat2D), []int{32, 64}},
		{leapfrogish(stencil.Heat2D), []int{32, 64}},
		{leapfrogish(stencil.Box2D9), []int{32, 64}},
		{rk2ish(stencil.Heat2D), []int{128, 256}},
	} {
		cfg := NewConfig(n, c.p.Slopes(), c.p.StencilStages(), 8, nil, false, nil)
		if !reflect.DeepEqual(cfg.Big, c.wantBig) {
			t.Errorf("%s at BT 8: Big %v, want %v", c.p.Name, cfg.Big, c.wantBig)
		}
	}
	// The config owns its slices.
	block, coarsen := []int{10, 12}, []int{2}
	cfg := NewConfig([]int{64, 64}, []int{1, 1}, 1, 4, block, false, coarsen)
	block[0], coarsen[0] = 99, 99
	if cfg.Big[0] != 10 || cfg.Coarsen.PerStage[0] != 2 {
		t.Fatalf("NewConfig aliases its inputs: Big=%v Coarsen=%v", cfg.Big, cfg.Coarsen.PerStage)
	}
}
