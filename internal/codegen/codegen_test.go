package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// A compiled Spec must match the ND reference executor exactly
// (identical ascending-flat-offset summation order).
func TestCompiledSpecMatchesNDReference(t *testing.T) {
	cases := []*stencil.Generic{
		stencil.NewStar(1, 1),
		stencil.NewStar(1, 3),
		stencil.NewStar(2, 1),
		stencil.NewBox(2, 1),
		stencil.NewBox(2, 2),
		stencil.NewStar(3, 1),
		stencil.NewBox(3, 1),
	}
	pool := par.NewPool(2)
	defer pool.Close()
	for _, g := range cases {
		spec, err := Spec(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if spec.Points != len(g.Offsets) {
			t.Errorf("%s: Points = %d, want %d", g.Name, spec.Points, len(g.Offsets))
		}
		steps := 4
		rng := rand.New(rand.NewSource(1))
		switch g.Dims {
		case 1:
			n := 60
			gr := grid.NewGrid1D(n, g.MaxSlope())
			gr.Fill(func(x int) float64 { return rng.Float64() })
			nd := grid.NewNDGrid([]int{n}, []int{g.MaxSlope()})
			for x := 0; x < n; x++ {
				nd.Set([]int{x}, gr.At(x))
			}
			naive.Run(gr.View(), stencil.OneStage(spec), steps, pool, nil)
			naive.RunND(nd, g, steps, false)
			for x := 0; x < n; x++ {
				if gr.At(x) != nd.At([]int{x}) {
					t.Fatalf("%s: mismatch at %d", g.Name, x)
				}
			}
		case 2:
			nx, ny := 20, 24
			gr := grid.NewGrid2D(nx, ny, g.MaxSlope(), g.MaxSlope())
			gr.Fill(func(x, y int) float64 { return rng.Float64() })
			nd := grid.NewNDGrid([]int{nx, ny}, []int{g.MaxSlope(), g.MaxSlope()})
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					nd.Set([]int{x, y}, gr.At(x, y))
				}
			}
			naive.Run(gr.View(), stencil.OneStage(spec), steps, pool, nil)
			naive.RunND(nd, g, steps, false)
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					if gr.At(x, y) != nd.At([]int{x, y}) {
						t.Fatalf("%s: mismatch at (%d,%d): %v vs %v", g.Name, x, y, gr.At(x, y), nd.At([]int{x, y}))
					}
				}
			}
		case 3:
			nx, ny, nz := 10, 12, 14
			gr := grid.NewGrid3D(nx, ny, nz, g.MaxSlope(), g.MaxSlope(), g.MaxSlope())
			gr.Fill(func(x, y, z int) float64 { return rng.Float64() })
			nd := grid.NewNDGrid([]int{nx, ny, nz}, []int{g.MaxSlope(), g.MaxSlope(), g.MaxSlope()})
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					for z := 0; z < nz; z++ {
						nd.Set([]int{x, y, z}, gr.At(x, y, z))
					}
				}
			}
			naive.Run(gr.View(), stencil.OneStage(spec), steps, pool, nil)
			naive.RunND(nd, g, steps, false)
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					for z := 0; z < nz; z++ {
						if gr.At(x, y, z) != nd.At([]int{x, y, z}) {
							t.Fatalf("%s: mismatch at (%d,%d,%d)", g.Name, x, y, z)
						}
					}
				}
			}
		}
	}
}

// A compiled spec must run correctly under the tessellation executor —
// the whole point of Spec: arbitrary stencils through every scheme.
func TestCompiledSpecUnderTessellation(t *testing.T) {
	g := stencil.NewBox(2, 2) // order-2 box: 25 points, slope 2
	spec, err := Spec(g)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(3)
	defer pool.Close()
	gr := grid.NewGrid2D(40, 44, 2, 2)
	rng := rand.New(rand.NewSource(2))
	gr.Fill(func(x, y int) float64 { return rng.Float64() })
	ref := gr.Clone()

	// Tessellation with slope-2 tiles vs naive, bitwise.
	cfg := core.Config{N: []int{40, 44}, Slopes: spec.Slopes, BT: 2, Big: []int{12, 16}, Merge: true}
	if err := core.Run(gr.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 7), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	naive.Run(ref.View(), stencil.OneStage(spec), 7, nil, nil)
	if r := verify.Grids2D(gr, ref); !r.Equal {
		t.Fatal(r.Error("compiled-under-tessellation"))
	}
}

// The compiled block kernels must match the row closures bitwise: run
// the same tessellation schedule with block dispatch on and off.
func TestCompiledBlockMatchesRowBitwise(t *testing.T) {
	defer core.SetKernelPath(core.KernelPath())
	for _, g := range []*stencil.Generic{stencil.NewStar(2, 2), stencil.NewBox(2, 1), stencil.NewStar(3, 1), stencil.NewBox(3, 1)} {
		spec, err := Spec(g)
		if err != nil {
			t.Fatal(err)
		}
		if spec.B1 == nil && spec.B2 == nil && spec.B3 == nil {
			t.Fatalf("%s: compiled spec has no block kernel", g.Name)
		}
		pool := par.NewPool(3)
		rng := rand.New(rand.NewSource(3))
		sl := g.MaxSlope()
		switch g.Dims {
		case 2:
			a := grid.NewGrid2D(36, 40, sl, sl)
			a.Fill(func(x, y int) float64 { return rng.Float64() })
			b := a.Clone()
			cfg := core.Config{N: []int{36, 40}, Slopes: spec.Slopes, BT: sl, Big: []int{12 * sl, 12 * sl}, Merge: true}
			core.SetKernelPath("block")
			if err := core.Run(a.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 5), pool, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			core.SetKernelPath("row")
			if err := core.Run(b.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 5), pool, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids2D(a, b); !r.Equal {
				t.Fatal(r.Error(g.Name + " block-vs-row"))
			}
		case 3:
			a := grid.NewGrid3D(18, 20, 22, sl, sl, sl)
			a.Fill(func(x, y, z int) float64 { return rng.Float64() })
			b := a.Clone()
			cfg := core.Config{N: []int{18, 20, 22}, Slopes: spec.Slopes, BT: 1, Big: []int{8, 8, 8}, Merge: true}
			core.SetKernelPath("block")
			if err := core.Run(a.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 4), pool, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			core.SetKernelPath("row")
			if err := core.Run(b.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 4), pool, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids3D(a, b); !r.Equal {
				t.Fatal(r.Error(g.Name + " block-vs-row"))
			}
		}
		pool.Close()
	}
}

func TestEmitGoFormatsAndContainsTerms(t *testing.T) {
	g := stencil.NewStar(2, 1)
	src, err := EmitGo(g, "kernels", "star2D5P")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	for _, want := range []string{
		"package kernels",
		"func star2D5P(dst, src []float64, base, n, sy int)",
		"src[i-sy]", "src[i+sy]", "src[i-1]", "src[i+1]", "src[i]",
		"DO NOT EDIT",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("emitted source missing %q:\n%s", want, s)
		}
	}
}

func TestEmitGo3DBox(t *testing.T) {
	g := stencil.NewBox(3, 1)
	src, err := EmitGo(g, "kernels", "box3D27P")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	for _, want := range []string{"src[i-sx-sy-1]", "src[i+sx+sy+1]", "sy, sx int"} {
		if !strings.Contains(s, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
}

// EmitGo must also emit the fused block variant for 2D/3D stencils.
func TestEmitGoBlockVariant(t *testing.T) {
	src, err := EmitGo(stencil.NewStar(2, 1), "kernels", "star2D5P")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func star2D5PBlock(dst, src []float64, base, nx, ny, sy int)") {
		t.Errorf("2D emit missing block variant:\n%s", src)
	}
	src, err = EmitGo(stencil.NewBox(3, 1), "kernels", "box3D27P")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func box3D27PBlock(dst, src []float64, base, nx, ny, nz, sy, sx int)") {
		t.Errorf("3D emit missing block variant:\n%s", src)
	}
	src, err = EmitGo(stencil.NewStar(1, 2), "kernels", "p1D5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "p1D5Block") {
		t.Error("1D emit should not have a separate block variant (a row is the block)")
	}
}

func TestEmitGoHighOrderSymbols(t *testing.T) {
	g := stencil.NewStar(2, 2)
	src, err := EmitGo(g, "kernels", "star2DO2")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	for _, want := range []string{"src[i-2*sy]", "src[i+2*sy]", "src[i-2]", "src[i+2]"} {
		if !strings.Contains(s, want) {
			t.Errorf("emitted source missing %q:\n%s", want, s)
		}
	}
}

func TestSpecRejectsUnsupportedRank(t *testing.T) {
	if _, err := Spec(stencil.NewStar(4, 1)); err == nil {
		t.Fatal("4D spec should be rejected (ND executor handles it)")
	}
	if _, err := EmitGo(stencil.NewStar(4, 1), "p", "f"); err == nil {
		t.Fatal("4D emit should be rejected")
	}
	if _, err := Compile1D(stencil.NewStar(2, 1)); err == nil {
		t.Fatal("Compile1D should reject 2D stencils")
	}
}

func TestShapeDetection(t *testing.T) {
	if shapeOf(stencil.NewStar(3, 2)) != stencil.Star {
		t.Error("star detected as box")
	}
	if shapeOf(stencil.NewBox(2, 1)) != stencil.Box {
		t.Error("box detected as star")
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
