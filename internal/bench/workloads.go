// Package bench is the experiment harness: it encodes the paper's
// Table 4 workloads, runs any scheme at any thread count through the
// public API, and regenerates the rows/series behind every figure of
// the evaluation section (Figs. 8–12).
package bench

import (
	"fmt"

	"tessellate"
)

// Workload is one benchmark configuration: a kernel, a problem size and
// the per-scheme tile parameters of the paper's Table 4.
type Workload struct {
	// Figure names the paper figure this workload belongs to
	// ("8", "9", "10", "11a", "11b", "12").
	Figure string
	// Kernel is the stencil name (see tessellate.StencilByName).
	Kernel string
	// N is the spatial problem size, Steps the time extent.
	N     []int
	Steps int

	// TessBT/TessBig parametrise the tessellation scheme ("our
	// blocking" column).
	TessBT  int
	TessBig []int
	// DiamondBX/DiamondBT parametrise the diamond (Pluto) scheme.
	DiamondBX int
	DiamondBT int
	// SkewBT/SkewBX parametrise the time-skewed baseline.
	SkewBT int
	SkewBX []int
}

// String implements fmt.Stringer.
func (w Workload) String() string {
	return fmt.Sprintf("fig%s %s N=%v T=%d", w.Figure, w.Kernel, w.N, w.Steps)
}

// Table4 reproduces the paper's Table 4: problem sizes and block sizes
// for the seven benchmarks. The tessellation's time tile follows the
// paper's "half or double of the blocking size" rule; the diamond
// blocking matches the Pluto column (width x full temporal height).
var Table4 = []Workload{
	{
		Figure: "8", Kernel: "heat-1d",
		N: []int{12000000}, Steps: 4000,
		TessBT: 500, TessBig: []int{2000}, // our blocking 2000x1000
		DiamondBX: 2000, DiamondBT: 1000, // Pluto 2000x2000
		SkewBT: 500, SkewBX: []int{2000},
	},
	{
		Figure: "8", Kernel: "1d5p",
		N: []int{12000000}, Steps: 4000,
		TessBT: 125, TessBig: []int{2000}, // our blocking 2000x500
		DiamondBX: 2000, DiamondBT: 500, // Pluto 2000x2000 at slope 2
		SkewBT: 250, SkewBX: []int{2000},
	},
	{
		Figure: "10", Kernel: "heat-2d",
		N: []int{6000, 6000}, Steps: 2000,
		TessBT: 32, TessBig: []int{128, 256}, // our blocking 128x256x64
		DiamondBX: 64, DiamondBT: 32, // Pluto 64x64x64
		SkewBT: 32, SkewBX: []int{64, 64},
	},
	{
		Figure: "10", Kernel: "2d9p",
		N: []int{6000, 6000}, Steps: 2000,
		TessBT: 32, TessBig: []int{128, 256},
		DiamondBX: 64, DiamondBT: 32,
		SkewBT: 32, SkewBX: []int{64, 64},
	},
	{
		Figure: "9", Kernel: "game-of-life",
		N: []int{6000, 6000}, Steps: 2000,
		TessBT: 32, TessBig: []int{128, 256},
		DiamondBX: 128, DiamondBT: 64, // Pluto 128x128x128
		SkewBT: 64, SkewBX: []int{128, 128},
	},
	{
		Figure: "11a", Kernel: "heat-3d",
		N: []int{256, 256, 256}, Steps: 1000,
		TessBT: 6, TessBig: []int{24, 24, 24}, // our blocking 24x24x12
		DiamondBX: 12, DiamondBT: 6, // Pluto 12x12x12
		SkewBT: 6, SkewBX: []int{12, 12, 12},
	},
	{
		Figure: "11b", Kernel: "3d27p",
		N: []int{256, 256, 256}, Steps: 1000,
		TessBT: 6, TessBig: []int{24, 24, 24},
		DiamondBX: 12, DiamondBT: 6,
		SkewBT: 6, SkewBX: []int{12, 12, 12},
	},
	{
		Figure: "12", Kernel: "heat-3d",
		N: []int{256, 256, 256}, Steps: 1000,
		TessBT: 6, TessBig: []int{24, 24, 24},
		DiamondBX: 12, DiamondBT: 6,
		SkewBT: 6, SkewBX: []int{12, 12, 12},
	},
}

// ByFigure returns the Table 4 workloads of one figure.
func ByFigure(fig string) []Workload {
	var out []Workload
	for _, w := range Table4 {
		if w.Figure == fig {
			out = append(out, w)
		}
	}
	return out
}

// Scaled shrinks a workload by the integer factor f: 1D and 2D extents
// and steps divide by f, while tile sizes and 3D extents shrink only by
// sqrt(f) — tiles relate to cache geometry, which does not shrink with
// the problem, and scaling them linearly would erase the temporal reuse
// the comparison is about; a 3D extent divided by f would leave a few
// tiles' worth of work (256³ at f = 16 is 64³, about the update count
// of the 2D workloads at that f, where 16³ would be 0.3 ms a run). All
// configurations stay legal (Big >= 2*BT*slope), and 3D extents keep
// at least two tiles per dimension. Factor 1 returns the paper-size
// workload unchanged. Use this to fit the sweep onto small machines;
// relative scheme ordering, not absolute throughput, is the
// reproduction target.
func (w Workload) Scaled(f int) Workload {
	if f <= 1 {
		return w
	}
	spec, err := tessellate.StencilByName(w.Kernel)
	if err != nil {
		panic(err) // Table4 kernels are always resolvable
	}
	g := intSqrt(f)
	// Never scale the time tile below 4: temporal reuse of depth >= d
	// is the effect under study, and 3D workloads start at BT = 6.
	if m := w.TessBT / 4; m >= 1 && g > m {
		g = m
	}
	out := w
	out.N = make([]int, len(w.N))
	out.TessBig = make([]int, len(w.TessBig))
	out.SkewBX = make([]int, len(w.SkewBX))
	out.Steps = maxInt(w.Steps/f, 8)

	out.TessBT = maxInt(w.TessBT/g, 1)
	out.DiamondBT = maxInt(w.DiamondBT/g, 1)
	out.SkewBT = maxInt(w.SkewBT/g, 1)
	for k := range w.TessBig {
		out.TessBig[k] = maxInt(w.TessBig[k]/g, 2*out.TessBT*spec.Slopes[k])
	}
	for k := range w.SkewBX {
		out.SkewBX[k] = maxInt(w.SkewBX[k]/g, 1)
	}
	out.DiamondBX = maxInt(w.DiamondBX/g, 2*out.DiamondBT*spec.Slopes[0])
	for k := range w.N {
		if len(w.N) == 3 {
			out.N[k] = maxInt(w.N[k]/intSqrt(f), 2*out.TessBig[k])
		} else {
			out.N[k] = maxInt(w.N[k]/f, 16*spec.Slopes[k])
		}
	}
	return out
}

// intSqrt returns floor(sqrt(n)) for n >= 1.
func intSqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Points returns the spatial point count.
func (w Workload) Points() int64 {
	p := int64(1)
	for _, n := range w.N {
		p *= int64(n)
	}
	return p
}

// Updates returns the total point updates (points x steps).
func (w Workload) Updates() int64 { return w.Points() * int64(w.Steps) }

// Options builds the public-API Options for the given scheme on this
// workload, applying the Table 4 tile parameters.
func (w Workload) Options(scheme tessellate.Scheme) tessellate.Options {
	switch scheme {
	case tessellate.Tessellation:
		return tessellate.Options{Scheme: scheme, TimeTile: w.TessBT, Block: append([]int(nil), w.TessBig...)}
	case tessellate.Diamond, tessellate.MWD:
		return tessellate.Options{Scheme: scheme, TimeTile: w.DiamondBT, Block: []int{w.DiamondBX}}
	case tessellate.Skewed:
		return tessellate.Options{Scheme: scheme, TimeTile: w.SkewBT, Block: append([]int(nil), w.SkewBX...)}
	case tessellate.SpaceTiled:
		return tessellate.Options{Scheme: scheme, Block: append([]int(nil), w.SkewBX...)}
	case tessellate.Overlapped:
		block := make([]int, len(w.N))
		for k := range block {
			block[k] = 16 * w.TessBT
		}
		return tessellate.Options{Scheme: scheme, TimeTile: w.TessBT, Block: block}
	default:
		// Naive and Oblivious run with their built-in defaults
		// (Pochoir's published cutoffs for the latter).
		return tessellate.Options{Scheme: scheme}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
