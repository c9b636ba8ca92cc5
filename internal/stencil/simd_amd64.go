//go:build amd64 && !purego

package stencil

import "tessellate/internal/cpu"

// Assembly kernels (simd_amd64.s). Each stencil routine updates a whole
// box of positive extents whose low corner is at dst/src, running the
// final partial quad of every row or pencil as a masked quad; neighbour
// loads use signed offsets from src, so the caller's halo contract
// covers them. The wrappers below skip empty boxes and bounds-check the
// box's extreme write and its extreme halo reads, so a malformed call
// panics instead of touching memory outside the slices.
//
//go:noescape
func avx2Heat1D(dst, src *float64, n int)

//go:noescape
func avx2P1D5(dst, src *float64, n int)

//go:noescape
func avx2Heat2D(dst, src *float64, nx, ny, sy int)

//go:noescape
func avx2Heat3D(dst, src *float64, nx, ny, nz, sy, sx int)

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

func simdHeat1D(dst, src []float64, lo, hi int) {
	if hi > lo {
		_, _, _ = dst[hi-1], src[lo-1], src[hi]
		avx2Heat1D(&dst[lo], &src[lo], hi-lo)
	}
}

func simdP1D5(dst, src []float64, lo, hi int) {
	if hi > lo {
		_, _, _ = dst[hi-1], src[lo-2], src[hi+1]
		avx2P1D5(&dst[lo], &src[lo], hi-lo)
	}
}

func simdHeat2D(dst, src []float64, base, nx, ny, sy int) {
	if nx > 0 && ny > 0 {
		last := base + (nx-1)*sy + ny - 1
		_, _, _ = dst[last], src[base-sy], src[last+sy]
		avx2Heat2D(&dst[base], &src[base], nx, ny, sy)
	}
}

func simdHeat3D(dst, src []float64, base, nx, ny, nz, sy, sx int) {
	if nx > 0 && ny > 0 && nz > 0 {
		last := base + (nx-1)*sx + (ny-1)*sy + nz - 1
		_, _, _ = dst[last], src[base-sx], src[last+sx]
		avx2Heat3D(&dst[base], &src[base], nx, ny, nz, sy, sx)
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
