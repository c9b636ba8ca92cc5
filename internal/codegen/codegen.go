// Package codegen is the kernel-generation tool the paper lists as
// future work ("an automatically code generating tool"): it turns a
// declarative stencil description (offsets + coefficients) into
//
//  1. compiled row kernels — closures specialised at construction time
//     with precomputed flat offsets, letting any stencil.Generic run
//     through every tiling scheme in the repository, and
//  2. Go source text for a hand-tunable kernel, formatted with
//     go/format, equivalent to the hand-written kernels in
//     internal/stencil.
//
// Generated kernels accumulate in the stencil's declaration order —
// the same order stencil.Generic.Apply uses — so the compiled closure,
// the emitted source and the ND reference executor all compute
// bit-identical results.
package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"tessellate/internal/stencil"
)

// term is one neighbour access with its weight, ordered by flat offset.
type term struct {
	flat  int
	coeff float64
	off   []int
}

// terms builds the access list for the given strides, in declaration
// order (the summation order of stencil.Generic.Apply).
func terms(g *stencil.Generic, strides []int) []term {
	flat := g.FlatOffsets(strides)
	ts := make([]term, len(flat))
	for i := range flat {
		ts[i] = term{flat: flat[i], coeff: g.Coeffs[i], off: g.Offsets[i]}
	}
	return ts
}

// Compile1D builds a specialised 1D row kernel for g (g.Dims must be 1).
func Compile1D(g *stencil.Generic) (stencil.Kernel1D, error) {
	if g.Dims != 1 {
		return nil, fmt.Errorf("codegen: %s is %dD, want 1D", g.Name, g.Dims)
	}
	ts := terms(g, []int{1})
	flat := make([]int, len(ts))
	coeff := make([]float64, len(ts))
	for i, t := range ts {
		flat[i] = t.flat
		coeff[i] = t.coeff
	}
	return func(dst, src []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			var acc float64
			for n, d := range flat {
				acc += coeff[n] * src[i+d]
			}
			dst[i] = acc
		}
	}, nil
}

// Spec wraps a generic stencil as a stencil.Spec whose row kernels are
// compiled closures, so the stencil can run under any scheme
// (tessellation, diamond, oblivious, ...) via the ordinary executors.
// Because the 2D/3D row kernels receive strides at call time, the flat
// offsets are computed per call batch from the stride arguments; the
// offsets are cached per (sy, sx) pair.
func Spec(g *stencil.Generic) (*stencil.Spec, error) {
	s := &stencil.Spec{
		Name:   g.Name + "-compiled",
		Dims:   g.Dims,
		Shape:  shapeOf(g),
		Slopes: append([]int(nil), g.Slopes...),
		Points: len(g.Offsets),
		Flops:  2*len(g.Offsets) - 1,
	}
	switch g.Dims {
	case 1:
		k, err := Compile1D(g)
		if err != nil {
			return nil, err
		}
		s.K1 = k
		// A 1D row already is a whole block; the separate field just
		// routes it through the executors' block dispatch.
		s.B1 = stencil.Kernel1DBlock(k)
		s.S1 = compile1DVec(g)
	case 2:
		s.K2 = compile2D(g)
		s.B2 = compile2DBlock(g)
		s.S2 = compile2DVec(g)
	case 3:
		s.K3 = compile3D(g)
		s.B3 = compile3DBlock(g)
		s.S3 = compile3DVec(g)
	default:
		return nil, fmt.Errorf("codegen: row kernels support 1-3 dimensions, got %d (use the ND executor)", g.Dims)
	}
	// Compiled kernels read src only at the Generic's fixed offsets.
	return stencil.MarkRebasable(s), nil
}

func shapeOf(g *stencil.Generic) stencil.Shape {
	// A star stencil has non-zero displacement in at most one
	// dimension per offset.
	for _, off := range g.Offsets {
		nz := 0
		for _, v := range off {
			if v != 0 {
				nz++
			}
		}
		if nz > 1 {
			return stencil.Box
		}
	}
	return stencil.Star
}

// kernelCache memoises flat offsets per stride tuple. Row kernels are
// called from many goroutines, but strides are fixed per grid, so the
// cache is built once up front via a tiny lock-free copy-on-read: the
// closure captures a pointer it swaps only under mutex on miss.
type strideKey struct{ sy, sx int }

func compile2D(g *stencil.Generic) stencil.Kernel2D {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, n, sy int) {
		e := cache.get(strideKey{sy: sy}, func() ([]int, []float64) {
			ts := terms(g, []int{sy, 1})
			return split(ts)
		})
		for i := base; i < base+n; i++ {
			var acc float64
			for k, d := range e.flat {
				acc += e.coeff[k] * src[i+d]
			}
			dst[i] = acc
		}
	}
}

func compile3D(g *stencil.Generic) stencil.Kernel3D {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, n, sy, sx int) {
		e := cache.get(strideKey{sy: sy, sx: sx}, func() ([]int, []float64) {
			ts := terms(g, []int{sx, sy, 1})
			return split(ts)
		})
		for i := base; i < base+n; i++ {
			var acc float64
			for k, d := range e.flat {
				acc += e.coeff[k] * src[i+d]
			}
			dst[i] = acc
		}
	}
}

// compile2DBlock builds the fused block variant of compile2D: the
// offset-cache lookup and the indirect call are paid once per clipped
// box instead of once per row. Each point accumulates in the same
// declaration order as the row closure, so results are bitwise
// identical.
func compile2DBlock(g *stencil.Generic) stencil.Kernel2DBlock {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, nx, ny, sy int) {
		if ny <= 0 {
			return
		}
		e := cache.get(strideKey{sy: sy}, func() ([]int, []float64) {
			return split(terms(g, []int{sy, 1}))
		})
		flat, coeff := e.flat, e.coeff
		for x := 0; x < nx; x++ {
			b := base + x*sy
			for i := b; i < b+ny; i++ {
				var acc float64
				for k, d := range flat {
					acc += coeff[k] * src[i+d]
				}
				dst[i] = acc
			}
		}
	}
}

// compile3DBlock is the 3D analogue of compile2DBlock.
func compile3DBlock(g *stencil.Generic) stencil.Kernel3DBlock {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, nx, ny, nz, sy, sx int) {
		if nz <= 0 {
			return
		}
		e := cache.get(strideKey{sy: sy, sx: sx}, func() ([]int, []float64) {
			return split(terms(g, []int{sx, sy, 1}))
		})
		flat, coeff := e.flat, e.coeff
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				b := base + x*sx + y*sy
				for i := b; i < b+nz; i++ {
					var acc float64
					for k, d := range flat {
						acc += coeff[k] * src[i+d]
					}
					dst[i] = acc
				}
			}
		}
	}
}

// compile1DVec builds the auto-vectorizable tier of a 1D stencil (see
// vec.go). The flat offsets are stride-free in 1D, so there is no
// cache; the closure captures them directly.
func compile1DVec(g *stencil.Generic) stencil.Kernel1DBlock {
	flat, coeff := split(terms(g, []int{1}))
	return func(dst, src []float64, lo, hi int) {
		vecRow(dst, src, lo, hi-lo, flat, coeff)
	}
}

// compile2DVec builds the auto-vectorizable tier of a 2D stencil:
// compile2DBlock with the per-point loop replaced by the unrolled,
// bounds-check-free row bodies in vec.go. Bitwise identical to the
// row and block tiers.
func compile2DVec(g *stencil.Generic) stencil.Kernel2DBlock {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, nx, ny, sy int) {
		if ny <= 0 {
			return
		}
		e := cache.get(strideKey{sy: sy}, func() ([]int, []float64) {
			return split(terms(g, []int{sy, 1}))
		})
		flat, coeff := e.flat, e.coeff
		for x := 0; x < nx; x++ {
			vecRow(dst, src, base+x*sy, ny, flat, coeff)
		}
	}
}

// compile3DVec is the 3D analogue of compile2DVec.
func compile3DVec(g *stencil.Generic) stencil.Kernel3DBlock {
	var cache cacheMap[strideKey]
	return func(dst, src []float64, base, nx, ny, nz, sy, sx int) {
		if nz <= 0 {
			return
		}
		e := cache.get(strideKey{sy: sy, sx: sx}, func() ([]int, []float64) {
			return split(terms(g, []int{sx, sy, 1}))
		})
		flat, coeff := e.flat, e.coeff
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				vecRow(dst, src, base+x*sx+y*sy, nz, flat, coeff)
			}
		}
	}
}

func split(ts []term) ([]int, []float64) {
	flat := make([]int, len(ts))
	coeff := make([]float64, len(ts))
	for i, t := range ts {
		flat[i] = t.flat
		coeff[i] = t.coeff
	}
	return flat, coeff
}

// EmitGo renders a standalone Go source file containing a specialised
// row-kernel function for g, in the style of the hand-written kernels,
// plus (for 2D/3D stencils) a fused block variant named funcName+"Block"
// that iterates the rows of a whole clipped box internally — the shape
// the executors dispatch to via stencil.Spec.B2/B3. Offsets appear
// symbolically (multiples of sy/sx), so the emitted code works for any
// grid geometry. The result is gofmt-formatted.
func EmitGo(g *stencil.Generic, pkg, funcName string) ([]byte, error) {
	if g.Dims < 1 || g.Dims > 3 {
		return nil, fmt.Errorf("codegen: EmitGo supports 1-3 dimensions, got %d", g.Dims)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by tessellate/internal/codegen for stencil %q. DO NOT EDIT.\n", g.Name)
	fmt.Fprintf(&b, "package %s\n\n", pkg)

	var sig, idx string
	switch g.Dims {
	case 1:
		sig = "(dst, src []float64, lo, hi int)"
		idx = "lo"
	case 2:
		sig = "(dst, src []float64, base, n, sy int)"
		idx = "base"
	case 3:
		sig = "(dst, src []float64, base, n, sy, sx int)"
		idx = "base"
	}
	fmt.Fprintf(&b, "// %s updates one contiguous segment: %d-point %s stencil, slopes %v.\n",
		funcName, len(g.Offsets), shapeOf(g), g.Slopes)
	fmt.Fprintf(&b, "func %s%s {\n", funcName, sig)
	if g.Dims == 1 {
		fmt.Fprintf(&b, "\tfor i := %s; i < hi; i++ {\n", idx)
	} else {
		fmt.Fprintf(&b, "\tfor i := %s; i < %s+n; i++ {\n", idx, idx)
	}
	emitSum(&b, g, "\t\t")
	fmt.Fprintf(&b, "\t}\n}\n")

	switch g.Dims {
	case 2:
		fmt.Fprintf(&b, "\n// %sBlock updates the whole nx x ny box rooted at base (row stride\n// sy): %s fused over the box's rows.\n", funcName, funcName)
		fmt.Fprintf(&b, "func %sBlock(dst, src []float64, base, nx, ny, sy int) {\n", funcName)
		fmt.Fprintf(&b, "\tfor x := 0; x < nx; x++ {\n")
		fmt.Fprintf(&b, "\t\tb := base + x*sy\n")
		fmt.Fprintf(&b, "\t\tfor i := b; i < b+ny; i++ {\n")
		emitSum(&b, g, "\t\t\t")
		fmt.Fprintf(&b, "\t\t}\n\t}\n}\n")
	case 3:
		fmt.Fprintf(&b, "\n// %sBlock updates the whole nx x ny x nz box rooted at base (strides\n// sx, sy): %s fused over the box's pencils.\n", funcName, funcName)
		fmt.Fprintf(&b, "func %sBlock(dst, src []float64, base, nx, ny, nz, sy, sx int) {\n", funcName)
		fmt.Fprintf(&b, "\tfor x := 0; x < nx; x++ {\n")
		fmt.Fprintf(&b, "\t\tfor y := 0; y < ny; y++ {\n")
		fmt.Fprintf(&b, "\t\t\tb := base + x*sx + y*sy\n")
		fmt.Fprintf(&b, "\t\t\tfor i := b; i < b+nz; i++ {\n")
		emitSum(&b, g, "\t\t\t\t")
		fmt.Fprintf(&b, "\t\t\t}\n\t\t}\n\t}\n}\n")
	}
	return format.Source([]byte(b.String()))
}

// emitSum renders the per-point update "dst[i] = Σ coeff*src[i+off]"
// in declaration order, matching the compiled closures bit for bit.
func emitSum(b *strings.Builder, g *stencil.Generic, indent string) {
	fmt.Fprintf(b, "%sdst[i] =\n", indent)
	for n := range g.Offsets {
		sep := " +"
		if n == len(g.Offsets)-1 {
			sep = ""
		}
		fmt.Fprintf(b, "%s\t%v*src[i%s]%s\n", indent, g.Coeffs[n], indexExpr(g.Offsets[n], g.Dims), sep)
	}
}

// indexExpr renders the symbolic index displacement of one offset:
// e.g. "+2*sx-sy+1" for (2,-1,1) in 3D.
func indexExpr(off []int, dims int) string {
	names := map[int]string{}
	switch dims {
	case 1:
		names[0] = ""
	case 2:
		names[0] = "sy"
		names[1] = ""
	case 3:
		names[0] = "sx"
		names[1] = "sy"
		names[2] = ""
	}
	var b strings.Builder
	for k, v := range off {
		if v == 0 {
			continue
		}
		name := names[k]
		switch {
		case name == "":
			fmt.Fprintf(&b, "%+d", v)
		case v == 1:
			fmt.Fprintf(&b, "+%s", name)
		case v == -1:
			fmt.Fprintf(&b, "-%s", name)
		default:
			fmt.Fprintf(&b, "%+d*%s", v, name)
		}
	}
	return b.String()
}
