package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tessellate/internal/codegen"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// rk2ish is the SSP-RK2 shape: two spec applications and a half-half
// blend with the state.
func rk2ish(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{
		Name: "rk2-" + s.Name,
		Stages: []stencil.Stage{
			{Spec: s, In: 0},
			{Spec: s, In: 1},
			{A: 0.5, In: 0, B: 0.5, InB: 2},
		},
		TmpHalo: 0.25,
	}
}

// leapfrogish reads the previous state through the final blend:
// u' = 2*E(u) - u_prev.
func leapfrogish(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{
		Name: "leapfrog-" + s.Name,
		Stages: []stencil.Stage{
			{Spec: s, In: 0},
			{A: 2, In: 1, B: -1, InB: stencil.PrevState},
		},
		TmpHalo: 0.5,
	}
}

// react2D is a pointwise (slope-0) stage: the reaction half of an
// operator-split reaction-diffusion step.
var react2D = &stencil.Spec{
	Name: "react-2d", Dims: 2, Shape: stencil.Star, Slopes: []int{0, 0}, Points: 1, Flops: 4,
	K2: func(dst, src []float64, base, n, sy int) {
		for i := base; i < base+n; i++ {
			v := src[i]
			dst[i] = v + 0.08*(v*(1-v)*(v-0.2))
		}
	},
}

// pipelines2D is the 2D test matrix: spec chains, blends, PrevState,
// and a pointwise stage.
func pipelines2D() []*stencil.Pipeline {
	return []*stencil.Pipeline{
		rk2ish(stencil.Heat2D),
		leapfrogish(stencil.Box2D9),
		{Name: "heat-box", Stages: []stencil.Stage{
			{Spec: stencil.Heat2D, In: 0},
			{Spec: stencil.Box2D9, In: 1},
		}, TmpHalo: 0.75},
		{Name: "react-diff", Stages: []stencil.Stage{
			{Spec: stencil.Heat2D, In: 0},
			{Spec: react2D, In: 1},
		}, TmpHalo: 0.1},
	}
}

func TestRunPipeline1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	mixed := &stencil.Pipeline{Name: "p5-heat", Stages: []stencil.Stage{
		{Spec: stencil.P1D5, In: 0},
		{Spec: stencil.Heat1D, In: 1},
		{A: 0.75, In: 2, B: 0.25, InB: 0},
	}, TmpHalo: 0.3}
	// Blocks of 600 cells and more split a fused pair into strip1D
	// chunks.
	for _, p := range []*stencil.Pipeline{rk2ish(stencil.Heat1D), leapfrogish(stencil.Heat1D), mixed} {
		slope := p.Slopes()[0]
		for _, nb := range [][2]int{{89, 8}, {1499, 600}} {
			for _, merge := range []bool{false, true} {
				for _, steps := range []int{1, 7, 13} {
					cfg := Config{N: []int{nb[0]}, Slopes: p.Slopes(), BT: 3, Big: []int{nb[1] * slope}, Merge: merge}
					g := grid.NewGrid1D(nb[0], slope)
					fill1D(g, 11)
					ref := g.Clone()
					if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
						t.Fatalf("%s n=%d merge=%v steps=%d: %v", p.Name, nb[0], merge, steps, err)
					}
					if err := naive.Run(ref.View(), p, steps, nil, nil); err != nil {
						t.Fatal(err)
					}
					if r := verify.Grids1D(g, ref); !r.Equal {
						t.Fatalf("%s n=%d merge=%v steps=%d: %v", p.Name, nb[0], merge, steps, r.Error("pipeline-1d"))
					}
					if g.Step != steps {
						t.Fatalf("Step = %d, want %d", g.Step, steps)
					}
				}
			}
		}
	}
}

func TestRunPipeline2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range pipelines2D() {
		sl := p.Slopes()
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 5, 11} {
				cfg := Config{N: []int{33, 38}, Slopes: sl, BT: 2,
					Big: []int{10 * sl[0], 12 * sl[1]}, Merge: merge}
				g := grid.NewGrid2D(33, 38, sl[0], sl[1])
				fill2D(g, 12)
				ref := g.Clone()
				if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, err)
				}
				if err := naive.Run(ref.View(), p, steps, nil, nil); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, r.Error("pipeline-2d"))
				}
			}
		}
	}
}

func TestRunPipeline3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range []*stencil.Pipeline{rk2ish(stencil.Heat3D), leapfrogish(stencil.Box3D27)} {
		sl := p.Slopes()
		for _, merge := range []bool{false, true} {
			cfg := Config{N: []int{14, 13, 16}, Slopes: sl, BT: 1,
				Big: []int{4 * sl[0], 4 * sl[1], 5 * sl[2]}, Merge: merge}
			g := grid.NewGrid3D(14, 13, 16, sl[0], sl[1], sl[2])
			fill3D(g, 13)
			ref := g.Clone()
			steps := 5
			if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, nil, nil, nil); err != nil {
				t.Fatalf("%s merge=%v: %v", p.Name, merge, err)
			}
			if err := naive.Run(ref.View(), p, steps, nil, nil); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids3D(g, ref); !r.Equal {
				t.Fatalf("%s merge=%v: %v", p.Name, merge, r.Error("pipeline-3d"))
			}
		}
	}
}

// All three kernel dispatch paths must agree with the naive oracle run
// at the same path (and, since kernels are bitwise path-invariant, with
// each other).
func TestRunPipelinePathsMatchNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	old := KernelPath()
	defer SetKernelPath(old)
	p := rk2ish(stencil.Heat2D)
	sl := p.Slopes()
	for _, path := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: []int{30, 34}, Slopes: sl, BT: 2, Big: []int{8 * sl[0], 10 * sl[1]}, Merge: true}
		g := grid.NewGrid2D(30, 34, sl[0], sl[1])
		fill2D(g, 14)
		ref := g.Clone()
		if err := Run(g.View(), p, mustSchedule(t, &cfg, 9), pool, nil, nil, nil); err != nil {
			t.Fatalf("path %s: %v", path, err)
		}
		if err := naive.Run(ref.View(), p, 9, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("path %s: %v", path, r.Error("pipeline-path"))
		}
	}
}

func TestRunPipelineMaskedMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range pipelines2D() {
		sl := p.Slopes()
		for _, name := range []string{"lshape", "obstacle"} {
			m, err := grid.NamedMask(name, []int{33, 38})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{N: []int{33, 38}, Slopes: sl, BT: 2,
				Big: []int{10 * sl[0], 12 * sl[1]}, Merge: true}
			g := grid.NewGrid2D(33, 38, sl[0], sl[1])
			fill2D(g, 15)
			ref := g.Clone()
			steps := 7
			if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, m, nil, nil); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			if err := naive.Run(ref.View(), p, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("%s/%s: %v", p.Name, name, r.Error("pipeline-masked"))
			}
		}
	}
}

// TestPipelineFusionPlan pins which stencil→blend pairs run as one
// strip-mined body and how many intermediate slots each worker then
// allocates: a pair's slot is dropped only when no later stage reads
// it.
func TestPipelineFusionPlan(t *testing.T) {
	h := stencil.Heat2D
	hCopy := *h
	compiled, err := codegen.Spec(stencil.NewStar(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	kappa := make([]float64, 64)
	cases := []struct {
		p     *stencil.Pipeline
		fused []bool
		slots int
	}{
		{rk2ish(h), []bool{false, true, false}, 1},
		{leapfrogish(h), []bool{true, false}, 0},
		{&stencil.Pipeline{Name: "split-heat-box2d", Stages: []stencil.Stage{
			{Spec: h, In: 0},
			{Spec: stencil.Box2D9, In: 1},
		}}, []bool{false, false}, 1},
		// The blend reads slot 1, but so does stage 2: slot 1 stays.
		// Stage 2's output feeds only the final blend: that pair fuses.
		{&stencil.Pipeline{Name: "reread-by-stencil", Stages: []stencil.Stage{
			{Spec: h, In: 0},
			{A: 0.5, In: 1, B: 0.5, InB: 0},
			{Spec: h, In: 1},
			{A: 0.5, In: 2, B: 0.5, InB: 3},
		}}, []bool{false, false, true, false}, 2},
		// A later blend's InB re-reads the stencil output.
		{&stencil.Pipeline{Name: "reread-by-blend", Stages: []stencil.Stage{
			{Spec: h, In: 0},
			{A: 2, In: 0, B: -1, InB: 1},
			{A: 0.5, In: 2, B: 0.5, InB: 1},
		}}, []bool{false, false, false}, 2},
		// Codegen'd Generics read src at fixed offsets only: they fuse.
		{rk2ish(compiled), []bool{false, true, false}, 1},
		// Kernels that may read captured per-cell data at the grid
		// index keep their slot: a user spec, the shipped variable-
		// coefficient kernel, and a copy of a shipped spec (whose
		// kernels the copier may have replaced).
		{rk2ish(positional2D(kappa)), []bool{false, false, false}, 2},
		{leapfrogish(stencil.NewVarCoef2D(kappa)), []bool{false, false}, 1},
		{rk2ish(&hCopy), []bool{false, false, false}, 2},
		{leapfrogish(h.RowOnly()), []bool{false, false}, 1},
		// The blend ignores the stencil's output: nothing to fuse.
		{&stencil.Pipeline{Name: "blend-elsewhere", Stages: []stencil.Stage{
			{Spec: h, In: 0},
			{Spec: h, In: 1},
			{A: 0.5, In: 0, B: 0.5, InB: 1},
		}}, []bool{false, false, false}, 2},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%s: %v", c.p.Name, err)
		}
		fused := fusedPairs(c.p)
		if !reflect.DeepEqual(fused, c.fused) {
			t.Fatalf("%s: fusedPairs = %v, want %v", c.p.Name, fused, c.fused)
		}
		wantStrip := false
		for _, f := range c.fused {
			wantStrip = wantStrip || f
		}
		scratch := newLanes(3, 1)
		newScratch(scratch, c.p, fused, 64, 16)
		for w, sc := range scratch {
			slots := 0
			for _, buf := range sc.tmp {
				if buf != nil {
					slots++
				}
			}
			if slots != c.slots {
				t.Fatalf("%s: worker %d allocates %d slots, want %d", c.p.Name, w, slots, c.slots)
			}
			if (sc.strip != nil) != wantStrip {
				t.Fatalf("%s: worker %d strip allocated = %v, want %v", c.p.Name, w, sc.strip != nil, wantStrip)
			}
		}
	}

	// A rebasable pipeline's slot holds the Big[0] + 2*grow + 2*H rows
	// (planes) of dimension 0 one visit touches; a positional one keeps
	// the whole grid.
	g2 := grid.NewGrid2D(200, 90, 2, 2)
	cfg2 := Config{N: []int{200, 90}, Slopes: []int{2, 2}, BT: 4, Big: []int{32, 40}, Merge: true}
	g3 := grid.NewGrid3D(40, 12, 14, 2, 2, 2)
	cfg3 := Config{N: []int{40, 12, 14}, Slopes: []int{2, 2, 2}, BT: 1, Big: []int{8, 8, 8}, Merge: true}
	for _, c := range []struct {
		p    *stencil.Pipeline
		cfg  *Config
		v    grid.View
		want int
	}{
		{rk2ish(h), &cfg2, g2.View(), (32 + 2 + 4) * g2.SY},
		{rk2ish(positional2D(kappa)), &cfg2, g2.View(), len(g2.Buf[0])},
		{rk2ish(stencil.Heat3D), &cfg3, g3.View(), (8 + 2 + 4) * g3.SX},
		{rk2ish(positional3D(kappa)), &cfg3, g3.View(), len(g3.Buf[0])},
	} {
		b, err := newPipeBody(c.v, c.p, mustSchedule(t, c.cfg, 4), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.slotLen(); got != c.want {
			t.Fatalf("%s on %v: slot of %d cells, want %d", c.p.Name, c.cfg.N, got, c.want)
		}
	}
}

// positional1D/2D/3D are user-style kernels that read a captured
// per-cell field w, laid out like the grid buffers, at the flat index
// they are given (the pattern of the reactiondiffusion example and of
// NewVarCoef2D/3D): u' = u + w[i]*(Laplacian of u).
func positional1D(w []float64) *stencil.Spec {
	return &stencil.Spec{Name: "pos-1d", Dims: 1, Shape: stencil.Star, Slopes: []int{1}, Points: 3, Flops: 6,
		K1: func(dst, src []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = src[i] + w[i]*(src[i-1]+src[i+1]-2*src[i])
			}
		}}
}

func positional2D(w []float64) *stencil.Spec {
	return &stencil.Spec{Name: "pos-2d", Dims: 2, Shape: stencil.Star, Slopes: []int{1, 1}, Points: 5, Flops: 8,
		K2: func(dst, src []float64, base, n, sy int) {
			for i := base; i < base+n; i++ {
				dst[i] = src[i] + w[i]*(src[i-1]+src[i+1]+src[i-sy]+src[i+sy]-4*src[i])
			}
		}}
}

func positional3D(w []float64) *stencil.Spec {
	return &stencil.Spec{Name: "pos-3d", Dims: 3, Shape: stencil.Star, Slopes: []int{1, 1, 1}, Points: 7, Flops: 10,
		K3: func(dst, src []float64, base, n, sy, sx int) {
			for i := base; i < base+n; i++ {
				dst[i] = src[i] + w[i]*(src[i-1]+src[i+1]+src[i-sy]+src[i+sy]+src[i-sx]+src[i+sx]-6*src[i])
			}
		}}
}

// cellField returns a per-cell coefficient field of n cells in
// [0.02, 0.14], distinct between neighbouring cells so a kernel that
// read it at a shifted index would produce different values.
func cellField(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.02 + 0.02*float64(i%7)
	}
	return w
}

// Kernels that read captured per-cell data at their grid index, placed
// before a blend (the rk2 and leapfrog shapes), must see the point's
// real index: the executors keep such stages on a materialized slot,
// and every scheme must match the naive oracle bitwise.
func TestRunPipelinePositionalKernelsMatchNaive(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	old := KernelPath()
	defer SetKernelPath(old)
	for _, path := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		for _, masked := range []bool{false, true} {
			g1 := grid.NewGrid1D(97, 2)
			w1 := cellField(len(g1.Buf[0]))
			for _, p := range []*stencil.Pipeline{rk2ish(positional1D(w1)), leapfrogish(positional1D(w1))} {
				var m *grid.Mask
				if masked {
					m, _ = grid.NamedMask("lshape", []int{97})
				}
				g := grid.NewGrid1D(97, 2)
				fill1D(g, 21)
				ref := g.Clone()
				cfg := Config{N: []int{97}, Slopes: p.Slopes(), BT: 3, Big: []int{8 * p.Slopes()[0]}, Merge: true}
				if err := Run(g.View(), p, mustSchedule(t, &cfg, 9), pool, m, nil, nil); err != nil {
					t.Fatalf("%s/%s: %v", path, p.Name, err)
				}
				if err := naive.Run(ref.View(), p, 9, nil, m); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids1D(g, ref); !r.Equal {
					t.Fatalf("%s/%s masked=%v: %v", path, p.Name, masked, r.Error("pipeline-positional-1d"))
				}
			}

			g2 := grid.NewGrid2D(29, 34, 2, 2)
			w2 := cellField(len(g2.Buf[0]))
			for _, p := range []*stencil.Pipeline{
				rk2ish(positional2D(w2)), leapfrogish(positional2D(w2)),
				rk2ish(stencil.NewVarCoef2D(w2)), leapfrogish(stencil.NewVarCoef2D(w2)),
			} {
				var m *grid.Mask
				if masked {
					m, _ = grid.NamedMask("lshape", []int{29, 34})
				}
				sl := p.Slopes()
				g := grid.NewGrid2D(29, 34, 2, 2)
				fill2D(g, 22)
				ref := g.Clone()
				cfg := Config{N: []int{29, 34}, Slopes: sl, BT: 2, Big: []int{8 * sl[0], 10 * sl[1]}, Merge: true}
				if err := Run(g.View(), p, mustSchedule(t, &cfg, 7), pool, m, nil, nil); err != nil {
					t.Fatalf("%s/%s: %v", path, p.Name, err)
				}
				if err := naive.Run(ref.View(), p, 7, nil, m); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s/%s masked=%v: %v", path, p.Name, masked, r.Error("pipeline-positional-2d"))
				}
			}

			g3 := grid.NewGrid3D(11, 12, 13, 2, 2, 2)
			w3 := cellField(len(g3.Buf[0]))
			for _, p := range []*stencil.Pipeline{
				rk2ish(positional3D(w3)), leapfrogish(stencil.NewVarCoef3D(w3)),
			} {
				var m *grid.Mask
				if masked {
					m, _ = grid.NamedMask("lshape", []int{11, 12, 13})
				}
				sl := p.Slopes()
				g := grid.NewGrid3D(11, 12, 13, 2, 2, 2)
				fill3D(g, 23)
				ref := g.Clone()
				cfg := Config{N: []int{11, 12, 13}, Slopes: sl, BT: 1, Big: []int{4 * sl[0], 4 * sl[1], 5 * sl[2]}, Merge: true}
				if err := Run(g.View(), p, mustSchedule(t, &cfg, 5), pool, m, nil, nil); err != nil {
					t.Fatalf("%s/%s: %v", path, p.Name, err)
				}
				if err := naive.Run(ref.View(), p, 5, nil, m); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids3D(g, ref); !r.Equal {
					t.Fatalf("%s/%s masked=%v: %v", path, p.Name, masked, r.Error("pipeline-positional-3d"))
				}
			}
		}
	}
}

// rereadish feeds a stencil output both to a blend and to a later
// stencil, so that stencil→blend pair must keep its slot; the final
// stencil→blend pair fuses.
func rereadish(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{
		Name: "reread-" + s.Name,
		Stages: []stencil.Stage{
			{Spec: s, In: 0},
			{A: 0.5, In: 1, B: 0.5, InB: 0},
			{Spec: s, In: 1},
			{A: 0.25, In: 3, B: 0.75, InB: 2},
		},
		TmpHalo: 0.4,
	}
}

// fuzzPipeline returns the pipeline a fuzz input selects: shape 1 is
// SSP-RK2, 2 leapfrog (a fused pair whose blend reads PrevState), 3 a
// pair that must not fuse because a later stage re-reads its slot;
// anything else a random chain over specs.
func fuzzPipeline(rng *rand.Rand, specs []*stencil.Spec, shape uint8) *stencil.Pipeline {
	switch shape % 4 {
	case 1:
		return rk2ish(specs[rng.Intn(len(specs))])
	case 2:
		return leapfrogish(specs[rng.Intn(len(specs))])
	case 3:
		return rereadish(specs[rng.Intn(len(specs))])
	}
	return randomPipeline(rng, specs)
}

// randomPipeline derives a small random pipeline over specs from the
// fuzz seed; it may be invalid (callers skip those).
func randomPipeline(rng *rand.Rand, specs []*stencil.Spec) *stencil.Pipeline {
	n := 1 + rng.Intn(3)
	p := &stencil.Pipeline{Name: "fuzz", TmpHalo: rng.Float64()}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			p.Stages = append(p.Stages, stencil.Stage{
				A: rng.Float64(), In: rng.Intn(i + 1),
				B: rng.Float64(), InB: rng.Intn(i + 1),
			})
			continue
		}
		p.Stages = append(p.Stages, stencil.Stage{Spec: specs[rng.Intn(len(specs))], In: rng.Intn(i + 1)})
	}
	// Sometimes rewire the final blend to read the previous state.
	if last := &p.Stages[len(p.Stages)-1]; last.Spec == nil && rng.Intn(2) == 0 {
		last.InB = stencil.PrevState
		last.B = -rng.Float64()
	}
	return p
}

// randomMask carves small random boxes (1-4 cells per side, so mixed
// blocks have single-row segments) out of an all-active mask; it
// sometimes returns a named shape or nil (unmasked) instead.
func randomMask(dims []int, rng *rand.Rand) *grid.Mask {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		m, _ := grid.NamedMask([]string{"lshape", "obstacle"}[rng.Intn(2)], dims)
		return m
	}
	m := grid.NewMask(dims)
	lo, hi, pt := make([]int, len(dims)), make([]int, len(dims)), make([]int, len(dims))
	var carve func(k int)
	carve = func(k int) {
		if k == len(dims) {
			m.Set(false, pt...)
			return
		}
		for pt[k] = lo[k]; pt[k] < hi[k]; pt[k]++ {
			carve(k + 1)
		}
	}
	for holes := 1 + rng.Intn(3*len(dims)); holes > 0; holes-- {
		for k, n := range dims {
			lo[k] = rng.Intn(n)
			hi[k] = min(lo[k]+1+rng.Intn(4), n)
		}
		carve(0)
	}
	m.Finalize()
	return m
}

// fuzzConfig draws a valid-or-skipped tiling for extents n and the
// pipeline's compound slopes.
func fuzzConfig(rng *rand.Rand, n, slopes []int, maxBT int) Config {
	bt := 1 + rng.Intn(maxBT)
	cfg := Config{N: n, Slopes: slopes, BT: bt}
	for _, s := range slopes {
		minBig := 2 * bt * s
		cfg.Big = append(cfg.Big, minBig+rng.Intn(minBig+3))
	}
	cfg.Merge = rng.Intn(2) == 0
	return cfg
}

// fuzzPath runs each fuzz input on a seed-chosen kernel tier, so the
// fused strips meet row, block and vector kernels alike.
func fuzzPath(t *testing.T, rng *rand.Rand) {
	old := KernelPath()
	t.Cleanup(func() { SetKernelPath(old) })
	if err := SetKernelPath([]string{"row", "block", "simd"}[rng.Intn(3)]); err != nil {
		t.Fatal(err)
	}
}

// checkCoverage asserts the schedule's clipped final boxes cover the
// active set exactly once per step (the masked form of Theorem 3.5):
// sum over visits of CountBox == ActiveCount * steps.
func checkCoverage(t *testing.T, cfg *Config, steps int, m *grid.Mask) {
	t.Helper()
	active := 1
	for _, n := range cfg.N {
		active *= n
	}
	if m != nil {
		active = m.ActiveCount()
	}
	lo := make([]int, len(cfg.N))
	hi := make([]int, len(cfg.N))
	covered := 0
	for _, r := range cfg.Regions(steps) {
		for bi := range r.Blocks {
			for tt := r.T0; tt < r.T1; tt++ {
				if !cfg.ClippedBounds(&r, &r.Blocks[bi], tt, lo, hi) {
					continue
				}
				if m != nil {
					covered += m.CountBox(lo, hi)
					continue
				}
				vol := 1
				for k := range lo {
					vol *= hi[k] - lo[k]
				}
				covered += vol
			}
		}
	}
	if covered != active*steps {
		t.Fatalf("cfg=%+v steps=%d: covered %d active points, want %d", *cfg, steps, covered, active*steps)
	}
}

// pipelineCorpus seeds every pipeline fuzz target: random chains plus
// the rk2, leapfrog (PrevState) and re-read shapes, and the rk2 and
// re-read shapes from the target's seed tiled, which draws a masked
// domain at least three tiles long along dimension 0, so the tile-local
// slots move from visit to visit.
func pipelineCorpus(f *testing.F, tiled int64) {
	for _, c := range []struct {
		seed  int64
		shape uint8
	}{{1, 0}, {42, 0}, {7777, 0}, {-3, 0}, {5, 1}, {6, 2}, {7, 3}, {8, 3}, {tiled, 1}, {tiled, 3}} {
		f.Add(c.seed, c.shape)
	}
}

// FuzzPipelineGeometry drives the fused pipeline executor through
// random geometries, stage chains and mask shapes on small 1D grids,
// asserting two properties per input:
//
//  1. the tessellated result is bitwise equal to the naive multi-stage
//     reference (masked or not), and
//  2. the schedule's clipped final boxes cover the active set exactly
//     once per step (checkCoverage).
func FuzzPipelineGeometry(f *testing.F) {
	pipelineCorpus(f, 2)
	pool := par.NewPool(3)
	f.Cleanup(func() { pool.Close() })
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := fuzzPipeline(rng, []*stencil.Spec{stencil.Heat1D, stencil.P1D5}, shape)
		if p.Validate() != nil {
			t.Skip("invalid pipeline shape")
		}
		sl := p.Slopes()
		cfg := fuzzConfig(rng, []int{8 + rng.Intn(50)}, sl, 3)
		if cfg.Validate() != nil {
			t.Skip("invalid config")
		}
		m := randomMask(cfg.N, rng)
		steps := 1 + rng.Intn(3*cfg.BT+2)
		fuzzPath(t, rng)

		g := grid.NewGrid1D(cfg.N[0], sl[0])
		fill1D(g, seed)
		ref := g.Clone()
		if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, m, nil, nil); err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if err := naive.Run(ref.View(), p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids1D(g, ref); !r.Equal {
			t.Fatalf("%s cfg=%+v steps=%d masked=%v: %v", p.Name, cfg, steps, m != nil, r.Error("fuzz-pipeline"))
		}
		checkCoverage(t, &cfg, steps, m)
	})
}

// star2DO2 is a compiled Generic (order-2 star): fused strips must
// serve codegen'd kernels with a two-row reach as well as the shipped
// specs.
var star2DO2 = func() *stencil.Spec {
	s, err := codegen.Spec(stencil.NewStar(2, 2))
	if err != nil {
		panic(err)
	}
	return s
}()

// FuzzPipelineGeometry2D is FuzzPipelineGeometry on Heat2D, Box2D9 and
// compiled order-2 star chains. Odd extents give fused strips an odd
// trailing row; carved masks give mixed blocks single-row segments.
func FuzzPipelineGeometry2D(f *testing.F) {
	pipelineCorpus(f, 12)
	pool := par.NewPool(3)
	f.Cleanup(func() { pool.Close() })
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := fuzzPipeline(rng, []*stencil.Spec{stencil.Heat2D, stencil.Box2D9, star2DO2}, shape)
		if p.Validate() != nil {
			t.Skip("invalid pipeline shape")
		}
		sl := p.Slopes()
		cfg := fuzzConfig(rng, []int{3 + rng.Intn(30), 3 + rng.Intn(36)}, sl, 3)
		if cfg.Validate() != nil {
			t.Skip("invalid config")
		}
		m := randomMask(cfg.N, rng)
		steps := 1 + rng.Intn(3*cfg.BT+2)
		fuzzPath(t, rng)

		g := grid.NewGrid2D(cfg.N[0], cfg.N[1], sl[0], sl[1])
		fill2D(g, seed)
		ref := g.Clone()
		if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, m, nil, nil); err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if err := naive.Run(ref.View(), p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("%s cfg=%+v steps=%d masked=%v: %v", p.Name, cfg, steps, m != nil, r.Error("fuzz-pipeline-2d"))
		}
		checkCoverage(t, &cfg, steps, m)
	})
}

// FuzzPipelineGeometry3D is FuzzPipelineGeometry on Heat3D chains.
// Odd y extents give fused strips an odd trailing pencil.
func FuzzPipelineGeometry3D(f *testing.F) {
	pipelineCorpus(f, 153)
	pool := par.NewPool(3)
	f.Cleanup(func() { pool.Close() })
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := fuzzPipeline(rng, []*stencil.Spec{stencil.Heat3D}, shape)
		if p.Validate() != nil {
			t.Skip("invalid pipeline shape")
		}
		sl := p.Slopes()
		cfg := fuzzConfig(rng, []int{3 + rng.Intn(12), 3 + rng.Intn(13), 3 + rng.Intn(14)}, sl, 2)
		if cfg.Validate() != nil {
			t.Skip("invalid config")
		}
		m := randomMask(cfg.N, rng)
		steps := 1 + rng.Intn(2*cfg.BT+2)
		fuzzPath(t, rng)

		g := grid.NewGrid3D(cfg.N[0], cfg.N[1], cfg.N[2], sl[0], sl[1], sl[2])
		fill3D(g, seed)
		ref := g.Clone()
		if err := Run(g.View(), p, mustSchedule(t, &cfg, steps), pool, m, nil, nil); err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if err := naive.Run(ref.View(), p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids3D(g, ref); !r.Equal {
			t.Fatalf("%s cfg=%+v steps=%d masked=%v: %v", p.Name, cfg, steps, m != nil, r.Error("fuzz-pipeline-3d"))
		}
		checkCoverage(t, &cfg, steps, m)
	})
}
