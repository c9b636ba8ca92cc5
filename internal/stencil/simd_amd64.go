//go:build amd64 && !purego

package stencil

import "tessellate/internal/cpu"

// Assembly row primitives (simd_amd64.s). Each processes n points —
// a positive multiple of 4 — starting at dst/src; neighbour loads use
// signed offsets from src, so the caller's halo contract covers them.
//
//go:noescape
func avx2Heat1D(dst, src *float64, n int)

//go:noescape
func avx2P1D5(dst, src *float64, n int)

//go:noescape
func avx2Heat2DPair(dst, src *float64, n, sy int)

//go:noescape
func avx2Heat2DRow(dst, src *float64, n, sy int)

//go:noescape
func avx2Heat3DPair(dst, src *float64, n, sy, sx int)

//go:noescape
func avx2Heat3DRow(dst, src *float64, n, sy, sx int)

//go:noescape
func avx2Blend(dst, a, b *float64, ca, cb float64, n int)

// SIMDAvailable reports whether the hand-tuned vector kernels are
// usable on this machine: amd64, not purego, and AVX2 present.
func SIMDAvailable() bool { return cpu.HasAVX2 }

func init() {
	if !cpu.HasAVX2 {
		return
	}
	Heat1D.S1 = simdHeat1D
	P1D5.S1 = simdP1D5
	Heat2D.S2 = simdHeat2D
	Heat3D.S3 = simdHeat3D
}

// simdHeat1D is heat1DBlock with the 4-wide body in AVX2; the lane
// remainder (n mod 4) runs the identical scalar expression.
func simdHeat1D(dst, src []float64, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	q := n &^ 3
	if q > 0 {
		avx2Heat1D(&dst[lo], &src[lo], q)
	}
	for i := lo + q; i < hi; i++ {
		dst[i] = h1e*src[i-1] + h1c*src[i] + h1e*src[i+1]
	}
}

// simdP1D5 is the order-2 star analogue of simdHeat1D.
func simdP1D5(dst, src []float64, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	q := n &^ 3
	if q > 0 {
		avx2P1D5(&dst[lo], &src[lo], q)
	}
	for i := lo + q; i < hi; i++ {
		dst[i] = p5c2*src[i-2] + p5c1*src[i-1] + p5c0*src[i] + p5c1*src[i+1] + p5c2*src[i+2]
	}
}

// simdHeat2D mirrors heat2DBlock's row pairing — each pair's centre
// vectors serve as the other row's north/south — with 4-lane
// arithmetic in the vector body and the block kernel's exact scalar
// expressions on the lane remainder and odd trailing row.
func simdHeat2D(dst, src []float64, base, nx, ny, sy int) {
	if ny <= 0 {
		return
	}
	q := ny &^ 3
	x := 0
	for ; x+2 <= nx; x += 2 {
		b := base + x*sy
		if q > 0 {
			avx2Heat2DPair(&dst[b], &src[b], q, sy)
		}
		for j := q; j < ny; j++ {
			i := b + j
			m0, m1 := src[i], src[i+sy]
			dst[i] = h2c*m0 + h2e*(src[i-1]+src[i+1]+src[i-sy]+m1)
			dst[i+sy] = h2c*m1 + h2e*(src[i+sy-1]+src[i+sy+1]+m0+src[i+2*sy])
		}
	}
	if x < nx {
		b := base + x*sy
		if q > 0 {
			avx2Heat2DRow(&dst[b], &src[b], q, sy)
		}
		for j := q; j < ny; j++ {
			i := b + j
			dst[i] = h2c*src[i] + h2e*(src[i-1]+src[i+1]+src[i-sy]+src[i+sy])
		}
	}
}

// simdHeat3D walks planes in x and pairs pencils in y like
// heat3DBlock, with the 4-lane body along z.
func simdHeat3D(dst, src []float64, base, nx, ny, nz, sy, sx int) {
	if nz <= 0 {
		return
	}
	q := nz &^ 3
	for x := 0; x < nx; x++ {
		pb := base + x*sx
		y := 0
		for ; y+2 <= ny; y += 2 {
			b := pb + y*sy
			if q > 0 {
				avx2Heat3DPair(&dst[b], &src[b], q, sy, sx)
			}
			for j := q; j < nz; j++ {
				i := b + j
				m0, m1 := src[i], src[i+sy]
				dst[i] = h3c*m0 + h3e*(src[i-1]+src[i+1]+src[i-sy]+m1+src[i-sx]+src[i+sx])
				dst[i+sy] = h3c*m1 + h3e*(src[i+sy-1]+src[i+sy+1]+m0+src[i+2*sy]+src[i+sy-sx]+src[i+sy+sx])
			}
		}
		if y < ny {
			b := pb + y*sy
			if q > 0 {
				avx2Heat3DRow(&dst[b], &src[b], q, sy, sx)
			}
			for j := q; j < nz; j++ {
				i := b + j
				dst[i] = h3c*src[i] + h3e*(src[i-1]+src[i+1]+src[i-sy]+src[i+sy]+src[i-sx]+src[i+sx])
			}
		}
	}
}

// blendVec runs BlendRow over a whole row in AVX2 when the row holds at
// least one quad: 4-lane body, then the same expression one lane wide
// for the n mod 4 tail. BlendRow passes a and b sliced to dst's length.
func blendVec(dst, a []float64, ca float64, b []float64, cb float64) bool {
	if len(dst) < 4 || !cpu.HasAVX2 {
		return false
	}
	avx2Blend(&dst[0], &a[0], &b[0], ca, cb, len(dst))
	return true
}
