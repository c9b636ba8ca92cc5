package stencil

import "fmt"

// Multi-stage pipelines. One logical time step of a Pipeline is an
// ordered chain of atomic stages (Qiqi Wang's decomposition of stencil
// update formulas into atomic stages): each stage is either a stencil
// Spec applied to an earlier buffer, or a pointwise linear blend of
// two earlier buffers. Stage i writes intermediate slot i+1; the final
// stage writes the next time level of the state grid. RK time steppers
// and split high-order operators decompose onto this form:
//
//	SSP-RK2:  u* = E(u); u** = E(u*); u' = 1/2 u + 1/2 u**
//	          -> {Spec E, In:0}, {Spec E, In:1}, {blend 0.5*s0 + 0.5*s2}
//	leapfrog: u' = (2u + c^2 lap u) - u_prev
//	          -> {Spec W, In:0}, {blend 1*s1 + (-1)*PrevState}
//
// The compound slope of the chain (per-dimension sum of stage slopes)
// is the dependence slope the tessellation geometry runs at: one block
// visit executes every stage, so the footprint of a fused step is the
// footprint of a single-stage stencil of the compound slope.

// PrevState selects the state grid's previous time level u^{t-1} as a
// blend input: with double buffering it is exactly the destination
// buffer's pre-write contents. Only the final stage may read it (its
// write set is the one box the schedule proves is written exactly once
// per step), and only pointwise (through a blend), so the read can
// never race with another block's write.
const PrevState = -1

// Stage is one atomic step of a Pipeline. A stencil stage (Spec != nil)
// applies Spec's kernel to input slot In. A blend stage (Spec == nil)
// computes Out[p] = A*in[p] + B*inB[p] pointwise.
//
// Slot numbering: 0 is the state grid at the step's start (u^t); slot
// j >= 1 is the output of stage j-1 of the same step; PrevState is
// u^{t-1} (final-stage blends only).
type Stage struct {
	Spec *Spec // stencil stage; nil selects a blend
	In   int   // input slot
	// Blend parameters (Spec == nil): Out = A*slot(In) + B*slot(InB).
	A, B float64
	InB  int
}

// Pipeline is an ordered chain of atomic stages executed once per
// logical time step. The zero value is invalid; construct literally
// and call Validate.
type Pipeline struct {
	Name   string
	Stages []Stage
	// TmpHalo is the constant value intermediate slots hold outside
	// the region a step computes (the analogue of the state grid's
	// Dirichlet halo). Stages reading an intermediate beyond the
	// domain see exactly this value in every executor and in the
	// naive oracle.
	TmpHalo float64
}

// OneStage returns s as the one-stage pipeline {Spec: s, In: 0}: a
// plain stencil run is exactly this chain, so executors that take a
// Pipeline run single specs through it.
func OneStage(s *Spec) *Pipeline {
	return &Pipeline{Name: s.Name, Stages: []Stage{{Spec: s}}}
}

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.Stages) }

// StencilStages returns the number of stencil (non-blend) stages.
func (p *Pipeline) StencilStages() int {
	n := 0
	for _, st := range p.Stages {
		if st.Spec != nil {
			n++
		}
	}
	return n
}

// NumTmp returns the number of intermediate slots (every stage but the
// final one writes one).
func (p *Pipeline) NumTmp() int { return len(p.Stages) - 1 }

// Dims returns the spatial dimensionality, taken from the first
// stencil stage (Validate ensures all stencil stages agree).
func (p *Pipeline) Dims() int {
	for _, st := range p.Stages {
		if st.Spec != nil {
			return st.Spec.Dims
		}
	}
	return 0
}

// StageSlopes returns stage i's dependence slope per dimension; blend
// stages are pointwise (all zeros).
func (p *Pipeline) StageSlopes(i int) []int {
	d := p.Dims()
	out := make([]int, d)
	if sp := p.Stages[i].Spec; sp != nil {
		copy(out, sp.Slopes)
	}
	return out
}

// Slopes returns the compound dependence slope per dimension: the sum
// of every stage's slope. It is the slope the tessellation geometry
// (and the grid halo) must be built for.
func (p *Pipeline) Slopes() []int {
	d := p.Dims()
	out := make([]int, d)
	for i := range p.Stages {
		for k, s := range p.StageSlopes(i) {
			out[k] += s
		}
	}
	return out
}

// SuffixSlopes returns, for each stage i, the per-dimension sum of the
// slopes of every LATER stage: grow[i][k] = sum_{j>i} slope_j[k]. A
// block visit whose final write box is F executes stage i on F grown
// by grow[i] per side — the exact set of points later stages will
// read — so stage reads nest perfectly inside earlier stage writes and
// state reads land on the single-stage footprint of the compound
// slope.
func (p *Pipeline) SuffixSlopes() [][]int {
	m := len(p.Stages)
	d := p.Dims()
	grow := make([][]int, m)
	suffix := make([]int, d)
	for i := m - 1; i >= 0; i-- {
		grow[i] = append([]int(nil), suffix...)
		for k, s := range p.StageSlopes(i) {
			suffix[k] += s
		}
	}
	return grow
}

// Validate checks the pipeline's structure and wiring. The rules are
// exactly the ones the fused executor's correctness argument needs:
// stages read only the state, earlier outputs of the same step, or
// (final blends only) the previous state.
func (p *Pipeline) Validate() error {
	m := len(p.Stages)
	if m == 0 {
		return fmt.Errorf("stencil: pipeline %q has no stages", p.Name)
	}
	d := 0
	for i, st := range p.Stages {
		if st.Spec == nil {
			continue
		}
		if st.Spec.Dims < 1 || st.Spec.Dims > 3 {
			return fmt.Errorf("stencil: pipeline %q stage %d: %dD specs are not supported in pipelines", p.Name, i, st.Spec.Dims)
		}
		if d == 0 {
			d = st.Spec.Dims
		} else if st.Spec.Dims != d {
			return fmt.Errorf("stencil: pipeline %q stage %d is %dD, earlier stages are %dD", p.Name, i, st.Spec.Dims, d)
		}
		switch d {
		case 1:
			if st.Spec.K1 == nil {
				return fmt.Errorf("stencil: pipeline %q stage %d (%s) has no 1D kernel", p.Name, i, st.Spec.Name)
			}
		case 2:
			if st.Spec.K2 == nil {
				return fmt.Errorf("stencil: pipeline %q stage %d (%s) has no 2D kernel", p.Name, i, st.Spec.Name)
			}
		case 3:
			if st.Spec.K3 == nil {
				return fmt.Errorf("stencil: pipeline %q stage %d (%s) has no 3D kernel", p.Name, i, st.Spec.Name)
			}
		}
	}
	if d == 0 {
		return fmt.Errorf("stencil: pipeline %q has no stencil stage (a blend-only pipeline has no spatial extent)", p.Name)
	}
	for i, st := range p.Stages {
		if err := p.checkSlot(i, st.In, st.Spec == nil); err != nil {
			return err
		}
		if st.Spec == nil {
			if err := p.checkSlot(i, st.InB, true); err != nil {
				return err
			}
		}
	}
	for k, s := range p.Slopes() {
		if s < 1 {
			return fmt.Errorf("stencil: pipeline %q has compound slope %d in dimension %d; every dimension needs slope >= 1", p.Name, s, k)
		}
	}
	return nil
}

// checkSlot validates one input slot reference of stage i.
func (p *Pipeline) checkSlot(i, slot int, blend bool) error {
	if slot == PrevState {
		if !blend {
			return fmt.Errorf("stencil: pipeline %q stage %d: PrevState is only readable by blend stages (stencil reads of the previous level race with neighbouring blocks)", p.Name, i)
		}
		if i != len(p.Stages)-1 {
			return fmt.Errorf("stencil: pipeline %q stage %d: PrevState is only readable by the final stage (earlier stages touch points other blocks write concurrently)", p.Name, i)
		}
		return nil
	}
	if slot < 0 || slot > i {
		return fmt.Errorf("stencil: pipeline %q stage %d reads slot %d; stages may read slots 0..%d (state and earlier outputs)", p.Name, i, slot, i)
	}
	return nil
}

// String implements fmt.Stringer.
func (p *Pipeline) String() string {
	return fmt.Sprintf("%s (%d stages, %dD, compound slopes %v)", p.Name, len(p.Stages), p.Dims(), p.Slopes())
}

// BlendRow computes dst[i] = ca*a[i] + cb*b[i] for i in [lo, hi). It is
// the single blend implementation shared by the fused executors and
// the naive oracle, so blend arithmetic is bitwise-identical across
// schemes by construction. a or b may alias dst (the PrevState read):
// each element is read before it is written and elements are
// independent. Where AVX2 is available, rows of 4 or more points run
// in assembly, 4 lanes wide and then one lane for the tail, with the
// same two rounded products and one rounded sum per point (no FMA); the
// explicit conversions keep the compiler from contracting the scalar
// loop either.
func BlendRow(dst, a []float64, ca float64, b []float64, cb float64, lo, hi int) {
	if hi <= lo {
		return
	}
	d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
	if blendVec(d, x, ca, y, cb) {
		return
	}
	for j := range d {
		d[j] = float64(ca*x[j]) + float64(cb*y[j])
	}
}
