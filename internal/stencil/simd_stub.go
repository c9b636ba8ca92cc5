//go:build !amd64 || purego

package stencil

// SIMDAvailable reports whether the hand-tuned vector kernels are
// usable on this machine. This build (non-amd64 or purego) has no
// assembly, so the shipped specs carry no S kernels and the SIMD path
// degrades to block everywhere.
func SIMDAvailable() bool { return false }

// blendVec has no vector body in this build: BlendRow's scalar loop
// covers every row.
func blendVec(dst, a []float64, ca float64, b []float64, cb float64) bool { return false }
