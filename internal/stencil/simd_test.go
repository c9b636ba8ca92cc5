package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The SIMD kernels' contract is bitwise identity with the block path
// (and hence the row path) on any clipped box: vector lanes pack
// independent points, term order within a point is the scalar order,
// and FMA is not used. These tests sweep the shapes that historically
// break fused kernels — empty boxes, 1-wide boxes, boxes flush
// against the halo, short pencils, and every lane remainder
// (n mod 4 ∈ 0..3) — on randomized data that includes negative
// values, denormals and signed zeros. Every output starts from the
// same non-zero sentinel pattern (sentinels), so a masked store that
// writes past the box, or a kernel that reads dst, fails the
// comparison.

// fill populates buf with adversarial float64 values.
func fill(r *rand.Rand, buf []float64) {
	for i := range buf {
		switch r.Intn(12) {
		case 0:
			buf[i] = 0
		case 1:
			buf[i] = math.Copysign(0, -1)
		case 2:
			buf[i] = 5e-324 * float64(r.Intn(100)) // (de)normal boundary
		default:
			buf[i] = (r.Float64() - 0.5) * 1e3
		}
	}
}

// sentinels returns two equal buffers of n distinct non-zero values,
// the starting contents of a test's want and got outputs.
func sentinels(n int) (want, got []float64) {
	want = make([]float64, n)
	for i := range want {
		want[i] = -1e9 - float64(i)
	}
	return want, append([]float64(nil), want...)
}

// bitEqual compares two buffers bitwise, reporting the first diff.
func bitEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: index %d: want %x (%v), got %x (%v)",
				name, i, math.Float64bits(want[i]), want[i],
				math.Float64bits(got[i]), got[i])
		}
	}
}

func TestSIMDHeat1DMatchesBlock(t *testing.T) {
	if Heat1D.S1 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	r := rand.New(rand.NewSource(1))
	const h = 1
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100} {
		src := make([]float64, n+2*h+8)
		fill(r, src)
		want, got := sentinels(len(src))
		lo := h
		Heat1D.K1(want, src, lo, lo+n)
		Heat1D.S1(got, src, lo, lo+n)
		bitEqual(t, "heat-1d", want, got)
	}
}

func TestSIMDP1D5MatchesBlock(t *testing.T) {
	if P1D5.S1 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	r := rand.New(rand.NewSource(2))
	const h = 2
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 59, 128} {
		src := make([]float64, n+2*h+8)
		fill(r, src)
		want, got := sentinels(len(src))
		lo := h
		P1D5.K1(want, src, lo, lo+n)
		P1D5.S1(got, src, lo, lo+n)
		bitEqual(t, "1d5p", want, got)
	}
}

// boxCase2D is one randomized clipped box inside a halo-padded plane.
type boxCase2D struct{ nx, ny, x0, y0 int }

func TestSIMDHeat2DMatchesBlock(t *testing.T) {
	if Heat2D.S2 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	r := rand.New(rand.NewSource(3))
	const h, NX, NY = 1, 40, 37
	sy := NY + 2*h
	src := make([]float64, (NX+2*h)*sy)
	fill(r, src)
	cases := []boxCase2D{
		{0, 0, h, h},          // empty
		{1, 1, h, h},          // single point, halo-adjacent corner
		{1, NY, h, h},         // 1-wide in x, full column
		{NX, 1, h, h},         // 1-wide in y
		{2, 3, h, h},          // lane remainder 3
		{3, 5, h, h},          // odd rows + remainder 1
		{NX, NY, h, h},        // whole interior, flush on all halos
		{4, 4, h + 7, h + 9},  // aligned quad interior
		{5, 6, h + NX - 5, h}, // flush against the far x halo
		{7, NY - 1, h, h + 1},
	}
	for i := 0; i < 40; i++ {
		nx := r.Intn(NX) + 1
		ny := r.Intn(NY) + 1
		cases = append(cases, boxCase2D{nx, ny, h + r.Intn(NX-nx+1), h + r.Intn(NY-ny+1)})
	}
	for _, c := range cases {
		want, got := sentinels(len(src))
		blk, _ := sentinels(len(src))
		base := c.x0*sy + c.y0
		for x := 0; x < c.nx; x++ { // row-path oracle
			Heat2D.K2(want, src, base+x*sy, c.ny, sy)
		}
		Heat2D.B2(blk, src, base, c.nx, c.ny, sy)
		Heat2D.S2(got, src, base, c.nx, c.ny, sy)
		bitEqual(t, "heat-2d block-vs-row", want, blk)
		bitEqual(t, "heat-2d simd-vs-row", want, got)
	}
}

func TestSIMDHeat3DMatchesBlock(t *testing.T) {
	if Heat3D.S3 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	r := rand.New(rand.NewSource(4))
	const h, NX, NY, NZ = 1, 12, 11, 21
	sy := NZ + 2*h
	sx := (NY + 2*h) * sy
	src := make([]float64, (NX+2*h)*sx)
	fill(r, src)
	type c3 struct{ nx, ny, nz, x0, y0, z0 int }
	cases := []c3{
		{0, 0, 0, h, h, h},                  // empty
		{1, 1, 1, h, h, h},                  // single point
		{1, 1, 2, h, h, h},                  // short pencil, remainder 2
		{2, 3, 3, h, h, h},                  // remainder 3
		{3, 2, 5, h, h, h},                  // remainder 1
		{2, 2, 15, h, h, h},                 // short-pencil threshold - 1
		{2, 2, 16, h, h, h},                 // short-pencil threshold
		{NX, NY, NZ, h, h, h},               // whole interior
		{NX, 1, NZ, h, h, h},                // 1-wide y
		{1, NY, NZ, h, h, h},                // 1-wide x
		{4, 5, 4, h + 8, h + 6, h + NZ - 4}, // flush far z halo
	}
	for i := 0; i < 30; i++ {
		nx := r.Intn(NX) + 1
		ny := r.Intn(NY) + 1
		nz := r.Intn(NZ) + 1
		cases = append(cases, c3{nx, ny, nz,
			h + r.Intn(NX-nx+1), h + r.Intn(NY-ny+1), h + r.Intn(NZ-nz+1)})
	}
	for _, c := range cases {
		want, got := sentinels(len(src))
		blk, _ := sentinels(len(src))
		base := c.x0*sx + c.y0*sy + c.z0
		for x := 0; x < c.nx; x++ { // row-path oracle
			for y := 0; y < c.ny; y++ {
				Heat3D.K3(want, src, base+x*sx+y*sy, c.nz, sy, sx)
			}
		}
		Heat3D.B3(blk, src, base, c.nx, c.ny, c.nz, sy, sx)
		Heat3D.S3(got, src, base, c.nx, c.ny, c.nz, sy, sx)
		bitEqual(t, "heat-3d block-vs-row", want, blk)
		bitEqual(t, "heat-3d simd-vs-row", want, got)
	}
}

// TestSIMDHeat2DSmallBoxes compares the vector kernel bitwise with the
// row oracle on every box with nx, ny in 1..9, each at all four corners
// of a 9×9 interior: every row count and lane remainder, flush against
// the near and the far halo in each dimension.
func TestSIMDHeat2DSmallBoxes(t *testing.T) {
	if Heat2D.S2 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	const h, NX, NY = 1, 9, 9
	sy := NY + 2*h
	src := make([]float64, (NX+2*h)*sy)
	fill(rand.New(rand.NewSource(6)), src)
	for nx := 1; nx <= NX; nx++ {
		for ny := 1; ny <= NY; ny++ {
			for _, x0 := range []int{h, h + NX - nx} {
				for _, y0 := range []int{h, h + NY - ny} {
					want, got := sentinels(len(src))
					base := x0*sy + y0
					for x := 0; x < nx; x++ {
						Heat2D.K2(want, src, base+x*sy, ny, sy)
					}
					Heat2D.S2(got, src, base, nx, ny, sy)
					bitEqual(t, fmt.Sprintf("heat-2d %dx%d at (%d,%d)", nx, ny, x0, y0), want, got)
				}
			}
		}
	}
}

// TestSIMDHeat3DSmallBoxes is the 3D sweep: nx, ny in 1..9 and nz in
// 1..13, each box at all eight corners of a 9×9×13 interior.
func TestSIMDHeat3DSmallBoxes(t *testing.T) {
	if Heat3D.S3 == nil {
		t.Skip("no SIMD kernel on this platform")
	}
	const h, NX, NY, NZ = 1, 9, 9, 13
	sy := NZ + 2*h
	sx := (NY + 2*h) * sy
	src := make([]float64, (NX+2*h)*sx)
	fill(rand.New(rand.NewSource(7)), src)
	for nx := 1; nx <= NX; nx++ {
		for ny := 1; ny <= NY; ny++ {
			for nz := 1; nz <= NZ; nz++ {
				for _, x0 := range []int{h, h + NX - nx} {
					for _, y0 := range []int{h, h + NY - ny} {
						for _, z0 := range []int{h, h + NZ - nz} {
							want, got := sentinels(len(src))
							base := x0*sx + y0*sy + z0
							for x := 0; x < nx; x++ {
								for y := 0; y < ny; y++ {
									Heat3D.K3(want, src, base+x*sx+y*sy, nz, sy, sx)
								}
							}
							Heat3D.S3(got, src, base, nx, ny, nz, sy, sx)
							bitEqual(t, fmt.Sprintf("heat-3d %dx%dx%d at (%d,%d,%d)", nx, ny, nz, x0, y0, z0), want, got)
						}
					}
				}
			}
		}
	}
}

// TestSIMDBoxBoundsChecked pins the wrappers' guard: the assembly does
// no bounds checks, so a box whose writes or halo reads leave the
// slices must panic before any memory is touched.
func TestSIMDBoxBoundsChecked(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no SIMD kernel on this platform")
	}
	buf := make([]float64, 6*6*6)
	cases := map[string]func(){
		"heat-1d dst":  func() { Heat1D.S1(buf[:5], buf, 1, 7) },
		"heat-1d halo": func() { Heat1D.S1(buf, buf[:7], 1, 7) },
		"1d5p halo":    func() { P1D5.S1(buf, buf, 1, 5) },
		"heat-2d dst":  func() { Heat2D.S2(buf[:20], buf, 7, 4, 4, 6) },
		"heat-2d halo": func() { Heat2D.S2(buf, buf[:28], 7, 4, 4, 6) },
		"heat-3d halo": func() { Heat3D.S3(buf, buf, 7, 4, 4, 4, 6, 36) },
		"heat-3d dst":  func() { Heat3D.S3(buf, buf, 43, 6, 4, 4, 6, 36) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range box did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestSIMDRegistration pins the capability gate: on a machine that
// reports SIMD support the shipped hot kernels must carry vector
// variants, and on one that doesn't they must all be nil.
func TestSIMDRegistration(t *testing.T) {
	have := Heat2D.S2 != nil
	if have != SIMDAvailable() {
		t.Fatalf("Heat2D.S2 set=%v but SIMDAvailable=%v", have, SIMDAvailable())
	}
	if SIMDAvailable() {
		if Heat1D.S1 == nil || P1D5.S1 == nil || Heat3D.S3 == nil {
			t.Fatal("SIMD available but a hot kernel is missing its vector variant")
		}
	}
	for _, s := range All {
		ro := s.RowOnly()
		if ro.S1 != nil || ro.S2 != nil || ro.S3 != nil || ro.B1 != nil || ro.B2 != nil || ro.B3 != nil {
			t.Fatalf("%s: RowOnly left a fused kernel set", s.Name)
		}
	}
}

// blendScalar is BlendRow's plain scalar definition, the reference the
// vector body must reproduce bit for bit.
func blendScalar(dst, a []float64, ca float64, b []float64, cb float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = float64(ca*a[i]) + float64(cb*b[i])
	}
}

// TestBlendRowMatchesScalar sweeps every lane remainder and odd start
// offsets, including the aliased dst == a and dst == b calls that
// PrevState blends make, and pins that no element outside [lo, hi) is
// written.
func TestBlendRowMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	coefs := [][2]float64{{0.5, 0.5}, {2, -1}, {1, -1}, {0.3, 0.7}, {-0, 1e-300}}
	for n := 0; n <= 67; n++ {
		for _, lo := range []int{0, 1, 3, 5, 7} {
			for _, c := range coefs {
				size := lo + n + 3
				a, b, init := make([]float64, size), make([]float64, size), make([]float64, size)
				fill(r, a)
				fill(r, b)
				fill(r, init)
				want := append([]float64(nil), init...)
				got := append([]float64(nil), init...)
				blendScalar(want, a, c[0], b, c[1], lo, lo+n)
				BlendRow(got, a, c[0], b, c[1], lo, lo+n)
				bitEqual(t, "blend", want, got)

				// dst == a (and dst == b): read before write per lane.
				want = append([]float64(nil), init...)
				got = append([]float64(nil), init...)
				blendScalar(want, want, c[0], b, c[1], lo, lo+n)
				BlendRow(got, got, c[0], b, c[1], lo, lo+n)
				bitEqual(t, "blend dst==a", want, got)
				want = append([]float64(nil), init...)
				got = append([]float64(nil), init...)
				blendScalar(want, a, c[0], want, c[1], lo, lo+n)
				BlendRow(got, a, c[0], got, c[1], lo, lo+n)
				bitEqual(t, "blend dst==b", want, got)
			}
		}
	}
}

// TestBlendRowVectorGate pins where BlendRow's vector body runs: rows
// of at least one quad when SIMD is available, never (the scalar loop
// alone) in purego and non-amd64 builds.
func TestBlendRowVectorGate(t *testing.T) {
	buf := make([]float64, 16)
	for n := 0; n <= len(buf); n++ {
		want := SIMDAvailable() && n >= 4
		if got := blendVec(buf[:n], buf, 1, buf, 1); got != want {
			t.Fatalf("blendVec on %d points = %v, want %v (SIMD %v)", n, got, want, SIMDAvailable())
		}
	}
}

// FuzzSIMDHeat2D cross-checks the vector and block paths bitwise on
// fuzzer-chosen box shapes and data seeds.
func FuzzSIMDHeat2D(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(2), uint8(5))
	f.Add(int64(3), uint8(16), uint8(5), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nxr, nyr, xr, yr uint8) {
		if Heat2D.S2 == nil {
			t.Skip("no SIMD kernel on this platform")
		}
		const h, NX, NY = 1, 24, 24
		sy := NY + 2*h
		nx := int(nxr)%NX + 1
		ny := int(nyr)%NY + 1
		x0 := h + int(xr)%(NX-nx+1)
		y0 := h + int(yr)%(NY-ny+1)
		src := make([]float64, (NX+2*h)*sy)
		fill(rand.New(rand.NewSource(seed)), src)
		want, got := sentinels(len(src))
		base := x0*sy + y0
		Heat2D.B2(want, src, base, nx, ny, sy)
		Heat2D.S2(got, src, base, nx, ny, sy)
		bitEqual(t, "fuzz heat-2d", want, got)
	})
}

// FuzzSIMDHeat3D is the 3D analogue, biased toward short pencils, with
// the box origin anywhere its extents allow, flush against either halo.
func FuzzSIMDHeat3D(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(17), uint8(6), uint8(7), uint8(3))
	f.Add(int64(3), uint8(7), uint8(8), uint8(6), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nxr, nyr, nzr, xr, yr, zr uint8) {
		if Heat3D.S3 == nil {
			t.Skip("no SIMD kernel on this platform")
		}
		const h, NX, NY, NZ = 1, 8, 8, 20
		sy := NZ + 2*h
		sx := (NY + 2*h) * sy
		nx := int(nxr)%NX + 1
		ny := int(nyr)%NY + 1
		nz := int(nzr)%NZ + 1
		x0 := h + int(xr)%(NX-nx+1)
		y0 := h + int(yr)%(NY-ny+1)
		z0 := h + int(zr)%(NZ-nz+1)
		src := make([]float64, (NX+2*h)*sx)
		fill(rand.New(rand.NewSource(seed)), src)
		want, got := sentinels(len(src))
		base := x0*sx + y0*sy + z0
		Heat3D.B3(want, src, base, nx, ny, nz, sy, sx)
		Heat3D.S3(got, src, base, nx, ny, nz, sy, sx)
		bitEqual(t, "fuzz heat-3d", want, got)
	})
}

// BenchmarkBlendRow times BlendRow on row lengths typical of clipped
// tile boxes (short) and of whole rows (long).
func BenchmarkBlendRow(b *testing.B) {
	for _, n := range []int{13, 48, 1024} {
		a, c, d := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], c[i] = float64(i%7)/7, float64(i%5)/5
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(24 * n))
			for i := 0; i < b.N; i++ {
				BlendRow(d, a, 0.5, c, 0.5, 0, n)
			}
		})
	}
}
