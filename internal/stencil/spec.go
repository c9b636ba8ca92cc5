// Package stencil defines the stencil kernels evaluated in the paper
// (Table 4) plus a generic star/box kernel of arbitrary order, and the
// kernel tiers every tiling scheme dispatches to.
//
// Every scheme — naive, space-tiled, time-skewed, diamond, cache
// oblivious, MWD, overlapped, 3.5D and the paper's tessellation —
// resolves one box kernel per run through ActivePath (ResolveBox, or
// Resolve1D/2D/3D), and every tier evaluates each point in the row
// kernel's order; the row tier is the fallback and the oracle. So for a
// fixed input any two correct schedules produce bitwise-identical grids
// on every tier. The test suite exploits this: scheduling bugs surface
// as exact mismatches, no floating-point tolerance needed.
package stencil

import "fmt"

// Kernel1D updates dst[i] from src[i-slope .. i+slope] for every flat
// index i in [lo, hi).
type Kernel1D func(dst, src []float64, lo, hi int)

// Kernel2D updates the row segment dst[base .. base+n) from src, where
// sy is the distance between x-adjacent points (the row stride) and the
// segment is y-contiguous.
type Kernel2D func(dst, src []float64, base, n, sy int)

// Kernel3D updates the pencil dst[base .. base+n) from src, where sy
// and sx are the y and x strides and the pencil is z-contiguous.
type Kernel3D func(dst, src []float64, base, n, sy, sx int)

// Block kernels receive a whole clipped box and iterate its rows
// internally, so the per-row indirect call and the per-row bounds
// checks of the row path are paid once per box instead of once per
// row. They are hand-tuned (explicit subslicing for bounds-check
// elimination, 4-way unrolled inner loops, row-pair processing that
// reuses loaded north/south and plane neighbours across adjacent
// rows) but bitwise-identical to the row kernels: each point's
// floating-point expression is evaluated in exactly the row kernel's
// order, so any executor may dispatch to either path freely.
//
// The contract matches the row kernels': the box must be surrounded
// by at least the stencil's slope of valid data (interior or halo) in
// every dimension. Degenerate boxes (any extent zero) are no-ops.

// Kernel1DBlock updates dst[lo .. hi) like Kernel1D; it exists as a
// separate field so the tuned variant is opt-in per spec.
type Kernel1DBlock func(dst, src []float64, lo, hi int)

// Kernel2DBlock updates the nx x ny box whose low corner has flat
// index base; sy is the row stride and rows are y-contiguous.
type Kernel2DBlock func(dst, src []float64, base, nx, ny, sy int)

// Kernel3DBlock updates the nx x ny x nz box whose low corner has
// flat index base; sx and sy are the x and y strides and pencils are
// z-contiguous.
type Kernel3DBlock func(dst, src []float64, base, nx, ny, nz, sy, sx int)

// Shape classifies the neighbourhood of a stencil.
type Shape int

const (
	// Star stencils touch only axis-aligned neighbours.
	Star Shape = iota
	// Box stencils touch the full (2m+1)^d neighbourhood.
	Box
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	if s == Star {
		return "star"
	}
	return "box"
}

// Spec describes one stencil kernel: its geometry (dimension, shape,
// per-dimension dependence slope) and the shared update functions. The
// slope equals the halo width a grid needs and the per-time-step tile
// boundary motion (the paper's XSLOPE/YSLOPE).
type Spec struct {
	Name   string
	Dims   int
	Shape  Shape
	Slopes []int // dependence slope (order) per dimension
	Points int   // stencil points read per update
	Flops  int   // floating-point ops per update (for GF/s reporting)

	K1 Kernel1D // set iff Dims == 1
	K2 Kernel2D // set iff Dims == 2
	K3 Kernel3D // set iff Dims == 3

	// Optional block kernels (the fused fast path). When set, the
	// executors dispatch whole clipped boxes here; the row kernels
	// above remain the fallback and the correctness oracle.
	B1 Kernel1DBlock // optional, Dims == 1
	B2 Kernel2DBlock // optional, Dims == 2
	B3 Kernel3DBlock // optional, Dims == 3

	// Optional SIMD kernels (4-lane float64 AVX2 on amd64, or the
	// codegen package's auto-vectorizable closures). Same whole-box
	// contract as the block kernels and bitwise-identical arithmetic;
	// populated only when the platform supports them, so a nil check
	// doubles as the capability gate.
	S1 Kernel1DBlock // optional, Dims == 1
	S2 Kernel2DBlock // optional, Dims == 2
	S3 Kernel3DBlock // optional, Dims == 3

	// rebasable points back at the spec itself when the spec was built
	// by this module with kernels that may be rebased; see Rebasable.
	// A copy of the struct points at the original, so it is not marked.
	rebasable *Spec
}

// Rebasable reports whether every kernel of s reads src only at fixed
// offsets from the index it updates and nothing else, so an executor
// may call it with dst, src and base all shifted by one offset: the
// fused pipeline executors do so to compute a stencil→blend pair in a
// small strip. The kernel contract promises a kernel the point's grid
// index, so only specs this module builds for position-free kernels
// are marked: the Table 4 kernels and codegen-compiled Generics. User
// specs, NewVarCoef2D/3D (whose kernels read κ at the grid index) and
// copies of a marked spec are not.
func Rebasable(s *Spec) bool { return s != nil && s.rebasable == s }

// MarkRebasable marks s as rebasable (see Rebasable) and returns it.
// Call it only on a spec whose kernels read no captured per-cell data.
func MarkRebasable(s *Spec) *Spec {
	s.rebasable = s
	return s
}

// RowOnly returns a copy of the spec with the block and SIMD kernels
// cleared, forcing executors onto the row path. Use it whenever a
// copied spec replaces or wraps a row kernel (tracing,
// instrumentation, fault injection): a stale fused kernel on the copy
// would silently bypass the replacement.
func (s *Spec) RowOnly() *Spec {
	t := *s
	t.B1, t.B2, t.B3 = nil, nil, nil
	t.S1, t.S2, t.S3 = nil, nil, nil
	return &t
}

// MaxSlope returns the largest per-dimension slope.
func (s *Spec) MaxSlope() int {
	m := 0
	for _, v := range s.Slopes {
		if v > m {
			m = v
		}
	}
	return m
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%dD %s, slopes %v)", s.Name, s.Dims, s.Shape, s.Slopes)
}

// The seven benchmark stencils of the paper's Table 4. Every spec
// carries both the shared row kernel and its hand-tuned block variant.
var (
	// Heat1D is the 1D 3-point heat equation stencil.
	Heat1D = MarkRebasable(&Spec{Name: "heat-1d", Dims: 1, Shape: Star, Slopes: []int{1}, Points: 3, Flops: 5, K1: heat1DRow, B1: heat1DBlock})
	// P1D5 is the 1D 5-point (order-2) star stencil.
	P1D5 = MarkRebasable(&Spec{Name: "1d5p", Dims: 1, Shape: Star, Slopes: []int{2}, Points: 5, Flops: 9, K1: p1d5Row, B1: p1d5Block})
	// Heat2D is the 2D 5-point heat equation stencil.
	Heat2D = MarkRebasable(&Spec{Name: "heat-2d", Dims: 2, Shape: Star, Slopes: []int{1, 1}, Points: 5, Flops: 9, K2: heat2DRow, B2: heat2DBlock})
	// Box2D9 is the 2D 9-point box stencil.
	Box2D9 = MarkRebasable(&Spec{Name: "2d9p", Dims: 2, Shape: Box, Slopes: []int{1, 1}, Points: 9, Flops: 17, K2: box2D9Row, B2: box2D9Block})
	// Life is Conway's Game of Life (2D 9-point box dependence).
	Life = MarkRebasable(&Spec{Name: "game-of-life", Dims: 2, Shape: Box, Slopes: []int{1, 1}, Points: 9, Flops: 9, K2: lifeRow, B2: lifeBlock})
	// Heat3D is the 3D 7-point heat equation stencil.
	Heat3D = MarkRebasable(&Spec{Name: "heat-3d", Dims: 3, Shape: Star, Slopes: []int{1, 1, 1}, Points: 7, Flops: 13, K3: heat3DRow, B3: heat3DBlock})
	// Box3D27 is the 3D 27-point box stencil.
	Box3D27 = MarkRebasable(&Spec{Name: "3d27p", Dims: 3, Shape: Box, Slopes: []int{1, 1, 1}, Points: 27, Flops: 53, K3: box3D27Row, B3: box3D27Block})
)

// All lists the benchmark stencils in the order of the paper's Table 4.
var All = []*Spec{Heat1D, P1D5, Heat2D, Box2D9, Life, Heat3D, Box3D27}

// ByName returns the benchmark spec with the given name, or an error
// listing the valid names.
func ByName(name string) (*Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("stencil: unknown kernel %q (valid: heat-1d, 1d5p, heat-2d, 2d9p, game-of-life, heat-3d, 3d27p)", name)
}
