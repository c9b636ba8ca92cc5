package naive

import (
	"fmt"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Masked reference runners: the naive schedule restricted to a mask's
// active points, i.e. the one-stage pipeline of the spec under the
// mask (see RunPipeline1D). Inactive points are never written: they
// keep their seeded value in both parity buffers (frozen interior
// Dirichlet cells).

// checkMask validates that m covers a grid of interior extents n and
// finalizes it.
func checkMask(m *grid.Mask, n []int) error {
	if len(m.Dims) != len(n) {
		return fmt.Errorf("naive: mask rank %d != grid rank %d", len(m.Dims), len(n))
	}
	for k := range n {
		if m.Dims[k] != n[k] {
			return fmt.Errorf("naive: mask extents %v != grid extents %v", m.Dims, n)
		}
	}
	m.Finalize()
	return nil
}

// RunMasked1D advances the active points of g by steps time steps of s.
func RunMasked1D(g *grid.Grid1D, s *stencil.Spec, steps int, pool *par.Pool, m *grid.Mask) error {
	return RunPipeline1D(g, stencil.OneStage(s), steps, pool, m)
}

// RunMasked2D advances the active points of g by steps time steps of s,
// parallelising over rows.
func RunMasked2D(g *grid.Grid2D, s *stencil.Spec, steps int, pool *par.Pool, m *grid.Mask) error {
	return RunPipeline2D(g, stencil.OneStage(s), steps, pool, m)
}

// RunMasked3D advances the active points of g by steps time steps of s,
// parallelising over planes.
func RunMasked3D(g *grid.Grid3D, s *stencil.Spec, steps int, pool *par.Pool, m *grid.Mask) error {
	return RunPipeline3D(g, stencil.OneStage(s), steps, pool, m)
}
