package tessellate

import (
	"math/rand"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// Differential suite for per-stage dispatch coarsening: on every
// shipped kernel — the seven Table 4 stencils plus both
// variable-coefficient kernels — and on both the row and fused-block
// dispatch paths, runs with no coarsening, a global factor and a
// per-stage vector must produce bitwise-identical fields. Coarsening
// only regroups how blocks are handed to workers; the schedule's
// update boxes are untouched.

// coarsenVectors are the coarsening variants every kernel is checked
// under ("none" is the reference).
var coarsenVectors = []struct {
	name string
	per  []int
}{
	{"global4", []int{4}},
	{"global-max", []int{MaxCoarsenFactor}},
	{"per-stage", []int{3, 2, 5, 2}}, // truncated to the kernel's d+1 slots
}

// coarsenVectorFor trims a variant vector to the d+1 slots a
// d-dimensional config accepts.
func coarsenVectorFor(per []int, dims int) []int {
	if len(per) > dims+1 {
		return per[:dims+1]
	}
	return per
}

func coarsenDiffOptions(dims int) Options {
	switch dims {
	case 1:
		return Options{Scheme: Tessellation, TimeTile: 2, Block: []int{12}}
	case 2:
		return Options{Scheme: Tessellation, TimeTile: 3, Block: []int{12, 16}}
	default:
		return Options{Scheme: Tessellation, TimeTile: 2, Block: []int{8, 6, 8}}
	}
}

func TestCoarseningBitwiseIdenticalAllKernels(t *testing.T) {
	eng := NewEngine(3)
	defer eng.Close()
	defer core.SetKernelPath(core.KernelPath())

	specs := append([]*Stencil(nil), stencil.All...)
	const nx1, nx2, ny2, nx3, ny3, nz3 = 89, 40, 36, 18, 15, 16

	// Variable-coefficient kernels need a padded coefficient field.
	kg2 := NewGrid2D(nx2, ny2, 1, 1)
	kappa2 := make([]float64, len(kg2.Buf[0]))
	kg3 := NewGrid3D(nx3, ny3, nz3, 1, 1, 1)
	kappa3 := make([]float64, len(kg3.Buf[0]))
	rng := rand.New(rand.NewSource(17))
	for i := range kappa2 {
		kappa2[i] = 0.05 + rng.Float64()
	}
	for i := range kappa3 {
		kappa3[i] = 0.05 + rng.Float64()
	}
	specs = append(specs, NewVarCoef2D(kappa2), NewVarCoef3D(kappa3))

	for _, spec := range specs {
		for _, blockPath := range []bool{false, true} {
			path := "row"
			if blockPath {
				path = "block"
			}
			core.SetKernelPath(path)
			opt := coarsenDiffOptions(spec.Dims)
			steps := 4*opt.TimeTile + 1

			switch spec.Dims {
			case 1:
				base := NewGrid1D(nx1, spec.MaxSlope())
				fillDiff1D(base, spec)
				ref := base.Clone()
				if err := eng.Run1D(ref, spec, steps, opt); err != nil {
					t.Fatalf("%s/%s: %v", spec.Name, path, err)
				}
				for _, v := range coarsenVectors {
					g := base.Clone()
					o := opt
					o.CoarsenPerStage = coarsenVectorFor(v.per, spec.Dims)
					if err := eng.Run1D(g, spec, steps, o); err != nil {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, err)
					}
					if r := verify.Grids1D(g, ref); !r.Equal {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, r.Error("coarsened"))
					}
				}
			case 2:
				base := NewGrid2D(nx2, ny2, 1, 1)
				fillDiff2D(base, spec)
				ref := base.Clone()
				if err := eng.Run2D(ref, spec, steps, opt); err != nil {
					t.Fatalf("%s/%s: %v", spec.Name, path, err)
				}
				for _, v := range coarsenVectors {
					g := base.Clone()
					o := opt
					o.CoarsenPerStage = coarsenVectorFor(v.per, spec.Dims)
					if err := eng.Run2D(g, spec, steps, o); err != nil {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, err)
					}
					if r := verify.Grids2D(g, ref); !r.Equal {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, r.Error("coarsened"))
					}
				}
			case 3:
				base := NewGrid3D(nx3, ny3, nz3, 1, 1, 1)
				fillDiff3D(base, spec)
				ref := base.Clone()
				if err := eng.Run3D(ref, spec, steps, opt); err != nil {
					t.Fatalf("%s/%s: %v", spec.Name, path, err)
				}
				for _, v := range coarsenVectors {
					g := base.Clone()
					o := opt
					o.CoarsenPerStage = coarsenVectorFor(v.per, spec.Dims)
					if err := eng.Run3D(g, spec, steps, o); err != nil {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, err)
					}
					if r := verify.Grids3D(g, ref); !r.Equal {
						t.Fatalf("%s/%s/%s: %v", spec.Name, path, v.name, r.Error("coarsened"))
					}
				}
			}
		}
	}
}

func fillDiff1D(g *Grid1D, spec *Stencil) {
	rng := rand.New(rand.NewSource(int64(len(spec.Name))))
	g.Fill(func(x int) float64 { return rng.Float64() })
	g.SetBoundary(0.5)
}

func fillDiff2D(g *Grid2D, spec *Stencil) {
	rng := rand.New(rand.NewSource(int64(len(spec.Name))))
	if spec.Name == stencil.Life.Name {
		g.Fill(func(x, y int) float64 { return float64(rng.Intn(2)) })
		g.SetBoundary(0)
		return
	}
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(0.25)
}

func fillDiff3D(g *Grid3D, spec *Stencil) {
	rng := rand.New(rand.NewSource(int64(len(spec.Name))))
	g.Fill(func(x, y, z int) float64 { return rng.Float64() })
	g.SetBoundary(0.125)
}
