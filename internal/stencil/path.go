package stencil

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Path identifies one of the three kernel dispatch shapes the
// executors can route a clipped box through. The paths are ordered by
// ambition: each level falls back to the previous one per spec, so a
// path is a *ceiling*, not a demand — asking for SIMD on a spec (or a
// machine) without vector kernels degrades to block, and block
// degrades to row. Every path computes bitwise-identical results: the
// vector kernels evaluate each point's floating-point expression in
// exactly the row kernel's order (4 independent points per iteration,
// no reassociation across terms, no FMA contraction), so schedules
// remain exactly comparable across paths.
type Path uint8

const (
	// PathRow dispatches one row kernel call per grid row: the
	// original shape and the correctness oracle.
	PathRow Path = iota
	// PathBlock dispatches whole clipped boxes to the fused,
	// hand-tuned scalar block kernels (PR 4).
	PathBlock
	// PathSIMD dispatches whole clipped boxes to the 4-lane float64
	// AVX2 kernels where a spec carries them and the CPU supports
	// them; otherwise behaves like PathBlock.
	PathSIMD
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathRow:
		return "row"
	case PathBlock:
		return "block"
	case PathSIMD:
		return "simd"
	}
	return "unknown"
}

// active is the process-wide dispatch ceiling. It lives here — not in
// core — so every scheme, the baselines included, samples the same
// selector without importing the tessellation executor;
// core.SetKernelPath is the policy front-end that stores through
// SetActivePath. Every run samples it exactly once at run start, so a
// concurrent switch never mixes paths within a run.
var active atomic.Int32

func init() {
	p := PathSIMD
	if env := os.Getenv("TESS_KERNEL_PATH"); env != "" {
		if v, ok := ParsePath(env); ok {
			p = v
		}
	}
	active.Store(int32(p))
}

// ActivePath returns the process-wide dispatch ceiling.
func ActivePath() Path { return Path(active.Load()) }

// SetActivePath stores the process-wide dispatch ceiling. Most callers
// want core.SetKernelPath, which adds name parsing and fallback
// telemetry on top.
func SetActivePath(p Path) { active.Store(int32(p)) }

// ParsePath converts a path name ("row", "block", "simd") to a Path.
func ParsePath(name string) (Path, bool) {
	switch name {
	case "row":
		return PathRow, true
	case "block":
		return PathBlock, true
	case "simd":
		return PathSIMD, true
	}
	return PathRow, false
}

// Resolve1D returns the concrete whole-box 1D kernel for path p and
// whether it came from the requested tier ("resolved" is the tier that
// actually answered). The row fallback wraps K1, so callers can treat
// every tier uniformly as a box kernel.
func (s *Spec) Resolve1D(p Path) (Kernel1DBlock, Path) {
	if p >= PathSIMD && s.S1 != nil {
		return s.S1, PathSIMD
	}
	if p >= PathBlock && s.B1 != nil {
		return s.B1, PathBlock
	}
	return Kernel1DBlock(s.K1), PathRow
}

// Resolve2D is Resolve1D for 2D specs; the row fallback loops K2 over
// the box's rows.
func (s *Spec) Resolve2D(p Path) (Kernel2DBlock, Path) {
	if p >= PathSIMD && s.S2 != nil {
		return s.S2, PathSIMD
	}
	if p >= PathBlock && s.B2 != nil {
		return s.B2, PathBlock
	}
	k := s.K2
	return func(dst, src []float64, base, nx, ny, sy int) {
		for x := 0; x < nx; x++ {
			k(dst, src, base, ny, sy)
			base += sy
		}
	}, PathRow
}

// Resolve3D is Resolve1D for 3D specs; the row fallback loops K3 over
// the box's pencils.
func (s *Spec) Resolve3D(p Path) (Kernel3DBlock, Path) {
	if p >= PathSIMD && s.S3 != nil {
		return s.S3, PathSIMD
	}
	if p >= PathBlock && s.B3 != nil {
		return s.B3, PathBlock
	}
	k := s.K3
	return func(dst, src []float64, base, nx, ny, nz, sy, sx int) {
		for x := 0; x < nx; x++ {
			b := base
			for y := 0; y < ny; y++ {
				k(dst, src, b, nz, sy, sx)
				b += sy
			}
			base += sx
		}
	}, PathRow
}

// BoxKernel is a whole-box kernel for a grid of any rank up to 3: it
// updates the box of extents n whose low corner has flat index base, in
// a layout of per-dimension strides st (dimension 0 outermost, the last
// one unit-stride). Entries past the kernel's rank are ignored.
type BoxKernel func(dst, src []float64, base int, n, st [3]int)

// ResolveBox returns s's box kernel on the highest tier up to p that s
// carries, through Resolve1D, Resolve2D or Resolve3D. It fails unless s
// is a d-dimensional kernel with its row kernel set, the tier every
// other one falls back to.
func (s *Spec) ResolveBox(d int, p Path) (BoxKernel, error) {
	switch {
	case d == 1 && s.Dims == 1 && s.K1 != nil:
		k, _ := s.Resolve1D(p)
		return func(dst, src []float64, base int, n, _ [3]int) { k(dst, src, base, base+n[0]) }, nil
	case d == 2 && s.Dims == 2 && s.K2 != nil:
		k, _ := s.Resolve2D(p)
		return func(dst, src []float64, base int, n, st [3]int) { k(dst, src, base, n[0], n[1], st[0]) }, nil
	case d == 3 && s.Dims == 3 && s.K3 != nil:
		k, _ := s.Resolve3D(p)
		return func(dst, src []float64, base int, n, st [3]int) {
			k(dst, src, base, n[0], n[1], n[2], st[1], st[0])
		}, nil
	}
	return nil, fmt.Errorf("%s is not a %dD kernel", s.Name, d)
}
