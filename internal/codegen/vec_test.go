package codegen

import (
	"math"
	"math/rand"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// The vec tier's contract is bitwise identity with the interpreted
// oracle (stencil.Generic.ApplyRow) for any arity: specialised bodies
// (3/5/7/9 terms) and the 4-wide fallback must both preserve the
// declaration-order accumulation starting from a zero accumulator.
// Data includes signed zeros and denormals — the cases a dropped
// leading zero or reassociated sum would flip.

func vecFill(r *rand.Rand, buf []float64) {
	for i := range buf {
		switch r.Intn(12) {
		case 0:
			buf[i] = 0
		case 1:
			buf[i] = math.Copysign(0, -1)
		case 2:
			buf[i] = 5e-324 * float64(r.Intn(100))
		default:
			buf[i] = (r.Float64() - 0.5) * 1e3
		}
	}
}

func vecBitEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: index %d: want %x (%v), got %x (%v)",
				name, i, math.Float64bits(want[i]), want[i],
				math.Float64bits(got[i]), got[i])
		}
	}
}

// asymmetric4 is a 4-term 2D stencil with no specialised body and
// lopsided offsets, exercising vecRowN's subslicing on both signs.
func asymmetric4() *stencil.Generic {
	return &stencil.Generic{
		Name:    "asym-2d-4p",
		Dims:    2,
		Slopes:  []int{2, 1},
		Offsets: [][]int{{-2, 0}, {0, -1}, {0, 0}, {1, 1}},
		Coeffs:  []float64{0.125, 0.25, 0.5, 0.125},
	}
}

func TestVecRowMatchesApplyRowAllArities(t *testing.T) {
	cases := []*stencil.Generic{
		stencil.NewStar(1, 1), // 3 terms
		stencil.NewStar(1, 2), // 5 terms
		stencil.NewStar(2, 1), // 5 terms, strided
		stencil.NewStar(3, 1), // 7 terms
		stencil.NewStar(2, 2), // 9 terms
		stencil.NewBox(2, 1),  // 9 terms, box
		stencil.NewStar(3, 2), // 13 terms -> fallback
		stencil.NewBox(2, 2),  // 25 terms -> fallback
		stencil.NewBox(3, 1),  // 27 terms -> fallback
		asymmetric4(),         // 4 terms -> fallback, asymmetric
	}
	r := rand.New(rand.NewSource(7))
	for _, g := range cases {
		// Flatten onto a 1D buffer with strides wide enough for the
		// worst offset; the row body only sees flat offsets, so this
		// exercises every dimension's codepath at once.
		strides := make([]int, g.Dims)
		strides[g.Dims-1] = 1
		if g.Dims >= 2 {
			strides[g.Dims-2] = 64
		}
		if g.Dims >= 3 {
			strides[0] = 64 * 64
		}
		flat, coeff := split(terms(g, strides))
		pad := 0
		for _, d := range flat {
			if d < -pad {
				pad = -d
			}
			if d > pad {
				pad = d
			}
		}
		// Every lane remainder (n mod 4 in 0..3), n=0, and a long row.
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 127, 256} {
			src := make([]float64, n+2*pad+8)
			vecFill(r, src)
			want := make([]float64, len(src))
			got := make([]float64, len(src))
			g.ApplyRow(want, src, pad, n, flat)
			vecRow(got, src, pad, n, flat, coeff)
			vecBitEqual(t, g.Name, want, got)
		}
	}
}

// TestCompiledVecSpecBoxes drives the S2/S3 closures over randomized
// clipped boxes — empty, 1-wide, halo-flush, lane remainders —
// against a per-row ApplyRow oracle.
func TestCompiledVecSpecBoxes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, g := range []*stencil.Generic{stencil.NewStar(2, 1), stencil.NewBox(2, 2), asymmetric4()} {
		spec, err := Spec(g)
		if err != nil {
			t.Fatal(err)
		}
		if spec.S2 == nil {
			t.Fatalf("%s: compiled spec has no vec kernel", g.Name)
		}
		h := g.MaxSlope()
		const NX, NY = 30, 29
		sy := NY + 2*h
		src := make([]float64, (NX+2*h)*sy)
		vecFill(r, src)
		flat := g.FlatOffsets([]int{sy, 1})
		type box struct{ nx, ny, x0, y0 int }
		cases := []box{
			{0, 0, h, h}, {1, 1, h, h}, {1, NY, h, h}, {NX, 1, h, h},
			{2, 3, h, h}, {NX, NY, h, h}, {5, 6, h + NX - 5, h + NY - 6},
		}
		for i := 0; i < 30; i++ {
			nx := r.Intn(NX) + 1
			ny := r.Intn(NY) + 1
			cases = append(cases, box{nx, ny, h + r.Intn(NX-nx+1), h + r.Intn(NY-ny+1)})
		}
		for _, c := range cases {
			want := make([]float64, len(src))
			got := make([]float64, len(src))
			base := c.x0*sy + c.y0
			for x := 0; x < c.nx; x++ {
				g.ApplyRow(want, src, base+x*sy, c.ny, flat)
			}
			spec.S2(got, src, base, c.nx, c.ny, sy)
			vecBitEqual(t, g.Name, want, got)
		}
	}

	g := stencil.NewStar(3, 1)
	spec, err := Spec(g)
	if err != nil {
		t.Fatal(err)
	}
	if spec.S3 == nil {
		t.Fatal("3D compiled spec has no vec kernel")
	}
	const h, NX, NY, NZ = 1, 10, 9, 17
	sy := NZ + 2*h
	sx := (NY + 2*h) * sy
	src := make([]float64, (NX+2*h)*sx)
	vecFill(r, src)
	flat := g.FlatOffsets([]int{sx, sy, 1})
	for i := 0; i < 25; i++ {
		nx := r.Intn(NX) + 1
		ny := r.Intn(NY) + 1
		nz := r.Intn(NZ) + 1
		x0 := h + r.Intn(NX-nx+1)
		y0 := h + r.Intn(NY-ny+1)
		z0 := h + r.Intn(NZ-nz+1)
		want := make([]float64, len(src))
		got := make([]float64, len(src))
		base := x0*sx + y0*sy + z0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				g.ApplyRow(want, src, base+x*sx+y*sy, nz, flat)
			}
		}
		spec.S3(got, src, base, nx, ny, nz, sy, sx)
		vecBitEqual(t, "star-3d vec box", want, got)
	}
}

// A compiled spec on the simd path must match the row path bitwise
// through the full tessellation executor.
func TestCompiledVecUnderExecutorMatchesRow(t *testing.T) {
	defer core.SetKernelPath(core.KernelPath())
	g := stencil.NewStar(2, 2)
	spec, err := Spec(g)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(9))
	a := grid.NewGrid2D(36, 40, 2, 2)
	a.Fill(func(x, y int) float64 { return rng.Float64() })
	b := a.Clone()
	cfg := core.Config{N: []int{36, 40}, Slopes: spec.Slopes, BT: 2, Big: []int{24, 24}, Merge: true}
	if err := core.SetKernelPath("simd"); err != nil {
		t.Fatal(err)
	}
	if err := core.Run(a.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 5), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := core.SetKernelPath("row"); err != nil {
		t.Fatal(err)
	}
	if err := core.Run(b.View(), stencil.OneStage(spec), mustSchedule(t, &cfg, 5), pool, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r := verify.Grids2D(a, b); !r.Equal {
		t.Fatal(r.Error("vec-vs-row under executor"))
	}
}

// FuzzVecRow cross-checks vecRow against ApplyRow on fuzzer-chosen
// arities, offsets and row lengths.
func FuzzVecRow(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(16))
	f.Add(int64(2), uint8(9), uint8(7))
	f.Add(int64(3), uint8(12), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, arity, nr uint8) {
		r := rand.New(rand.NewSource(seed))
		k := int(arity)%16 + 1
		n := int(nr) % 64
		flat := make([]int, k)
		coeff := make([]float64, k)
		offsets := make([][]int, k)
		for i := range flat {
			flat[i] = r.Intn(33) - 16
			coeff[i] = r.Float64() - 0.5
			offsets[i] = []int{flat[i]}
		}
		g := &stencil.Generic{Name: "fuzz", Dims: 1, Slopes: []int{16}, Offsets: offsets, Coeffs: coeff}
		src := make([]float64, n+40)
		vecFill(r, src)
		want := make([]float64, len(src))
		got := make([]float64, len(src))
		g.ApplyRow(want, src, 16, n, flat)
		vecRow(got, src, 16, n, flat, coeff)
		vecBitEqual(t, "fuzz vecRow", want, got)
	})
}
