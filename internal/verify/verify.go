// Package verify compares the outputs of two stencil schedules. Every
// kernel tier evaluates each point in the row kernel's order, so
// correct schedules produce bitwise-identical grids; any mismatch is a
// scheduling bug, and Diff pinpoints the first differing point.
package verify

import (
	"fmt"
	"math"

	"tessellate/internal/grid"
)

// Result summarises a comparison.
type Result struct {
	Equal    bool
	MaxAbs   float64 // largest absolute difference
	Count    int     // number of differing points
	FirstAt  []int   // coordinates of the first difference
	FirstGot float64
	FirstRef float64
}

// Error converts a mismatching Result into a descriptive error; it
// returns nil for an equal Result.
func (r *Result) Error(label string) error {
	if r.Equal {
		return nil
	}
	return fmt.Errorf("verify: %s differs at %v: got %v want %v (%d points differ, max |Δ| = %g)",
		label, r.FirstAt, r.FirstGot, r.FirstRef, r.Count, r.MaxAbs)
}

// Grids1D compares the current buffers of two 1D grids bit-for-bit.
func Grids1D(got, ref *grid.Grid1D) Result {
	r := Result{Equal: true}
	if got.N != ref.N {
		return mismatchShape()
	}
	for x := 0; x < got.N; x++ {
		record(&r, got.At(x), ref.At(x), []int{x})
	}
	return r
}

// Grids2D compares the current buffers of two 2D grids bit-for-bit.
func Grids2D(got, ref *grid.Grid2D) Result {
	r := Result{Equal: true}
	if got.NX != ref.NX || got.NY != ref.NY {
		return mismatchShape()
	}
	for x := 0; x < got.NX; x++ {
		for y := 0; y < got.NY; y++ {
			record(&r, got.At(x, y), ref.At(x, y), []int{x, y})
		}
	}
	return r
}

// Grids3D compares the current buffers of two 3D grids bit-for-bit.
func Grids3D(got, ref *grid.Grid3D) Result {
	r := Result{Equal: true}
	if got.NX != ref.NX || got.NY != ref.NY || got.NZ != ref.NZ {
		return mismatchShape()
	}
	for x := 0; x < got.NX; x++ {
		for y := 0; y < got.NY; y++ {
			for z := 0; z < got.NZ; z++ {
				record(&r, got.At(x, y, z), ref.At(x, y, z), []int{x, y, z})
			}
		}
	}
	return r
}

// GridsND compares the current buffers of two n-dimensional grids.
func GridsND(got, ref *grid.NDGrid) Result {
	r := Result{Equal: true}
	if len(got.Dims) != len(ref.Dims) {
		return mismatchShape()
	}
	for k := range got.Dims {
		if got.Dims[k] != ref.Dims[k] {
			return mismatchShape()
		}
	}
	c := make([]int, got.D())
	var walk func(k int)
	walk = func(k int) {
		if k == got.D() {
			record(&r, got.At(c), ref.At(c), c)
			return
		}
		for v := 0; v < got.Dims[k]; v++ {
			c[k] = v
			walk(k + 1)
		}
		c[k] = 0
	}
	walk(0)
	return r
}

func record(r *Result, got, ref float64, at []int) {
	if got == ref {
		return
	}
	if r.Equal {
		r.Equal = false
		r.FirstAt = append([]int(nil), at...)
		r.FirstGot = got
		r.FirstRef = ref
	}
	r.Count++
	if d := math.Abs(got - ref); d > r.MaxAbs {
		r.MaxAbs = d
	}
}

func mismatchShape() Result {
	return Result{Equal: false, FirstAt: []int{-1}, Count: -1}
}
