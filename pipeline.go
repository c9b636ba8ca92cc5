package tessellate

import (
	"fmt"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/stencil"
)

// Multi-stage pipelines and masked (irregular) domains ride the same
// tessellation geometry as plain runs: a pipeline's compound slope
// (per-dimension sum of its stage slopes) drives the tiling, and a
// mask's per-block activity summary keeps fully-active blocks on the
// unchanged fast path while fully-frozen blocks are skipped outright.
// Both support the Tessellation and Naive schemes; results are bitwise
// identical between the two.

// checkPipelineRun validates the common pipeline-run arguments and
// returns the compound slopes the tessellation geometry runs at.
func checkPipelineRun(p *Pipeline, dims, steps int, opt Options) ([]int, error) {
	if steps < 0 {
		return nil, fmt.Errorf("tessellate: negative steps %d", steps)
	}
	if p == nil {
		return nil, fmt.Errorf("tessellate: nil pipeline")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d := p.Dims(); d != dims {
		return nil, fmt.Errorf("tessellate: pipeline %s is %dD, grid is %dD", p.Name, d, dims)
	}
	if opt.Scheme != Tessellation && opt.Scheme != Naive {
		return nil, fmt.Errorf("tessellate: pipelines support the tessellation and naive schemes, got %v", opt.Scheme)
	}
	if err := checkPeriodic(opt); err != nil {
		return nil, err
	}
	return p.Slopes(), nil
}

// RunPipeline1D advances a 1D grid by steps logical time steps of the
// pipeline p. A non-nil mask m freezes its inactive cells. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunPipeline1D(g *Grid1D, p *Pipeline, steps int, m *Mask, opt Options) error {
	return e.runPipeline(g, g.View(), p, steps, m, opt)
}

// RunPipeline2D advances a 2D grid by steps logical time steps of the
// pipeline p. A non-nil mask m freezes its inactive cells. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunPipeline2D(g *Grid2D, p *Pipeline, steps int, m *Mask, opt Options) error {
	return e.runPipeline(g, g.View(), p, steps, m, opt)
}

// RunPipeline3D advances a 3D grid by steps logical time steps of the
// pipeline p. A non-nil mask m freezes its inactive cells. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunPipeline3D(g *Grid3D, p *Pipeline, steps int, m *Mask, opt Options) error {
	return e.runPipeline(g, g.View(), p, steps, m, opt)
}

// runPipeline is RunPipeline1D, RunPipeline2D and RunPipeline3D on g,
// whose layout is v.
func (e *Engine) runPipeline(g any, v grid.View, p *Pipeline, steps int, m *Mask, opt Options) error {
	slopes, err := checkPipelineRun(p, v.D, steps, opt)
	if err != nil {
		return err
	}
	var sched *core.Schedule
	if opt.Scheme == Tessellation {
		if sched, err = tessSchedule(v.Extents(), slopes, p.StencilStages(), steps, opt); err != nil {
			return err
		}
	}
	return e.typed(g, nil, p, m, sched, steps)
}

// RunMasked1D advances the active cells of a masked 1D grid by steps
// time steps of s; inactive cells keep their seed values. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunMasked1D(g *Grid1D, s *Stencil, steps int, m *Mask, opt Options) error {
	return e.runMasked(g, g.View(), s, steps, m, opt)
}

// RunMasked2D advances the active cells of a masked 2D grid by steps
// time steps of s; inactive cells keep their seed values. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunMasked2D(g *Grid2D, s *Stencil, steps int, m *Mask, opt Options) error {
	return e.runMasked(g, g.View(), s, steps, m, opt)
}

// RunMasked3D advances the active cells of a masked 3D grid by steps
// time steps of s; inactive cells keep their seed values. Only the
// Tessellation and Naive schemes are supported.
func (e *Engine) RunMasked3D(g *Grid3D, s *Stencil, steps int, m *Mask, opt Options) error {
	return e.runMasked(g, g.View(), s, steps, m, opt)
}

// runMasked is RunMasked1D, RunMasked2D and RunMasked3D on g, whose
// layout is v.
func (e *Engine) runMasked(g any, v grid.View, s *Stencil, steps int, m *Mask, opt Options) error {
	if err := checkStencilRun(s, v.D, steps, opt); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("tessellate: masked run requires a mask (use Run%dD for full domains)", v.D)
	}
	if opt.Scheme != Tessellation && opt.Scheme != Naive {
		return fmt.Errorf("tessellate: masked runs support the tessellation and naive schemes, got %v", opt.Scheme)
	}
	return e.runPipeline(g, v, stencil.OneStage(s), steps, m, opt)
}
