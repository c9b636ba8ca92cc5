package tessellate

import (
	"slices"
	"strings"
	"testing"
)

// Options.Periodic is accepted by RunND alone. Every other entry point
// returns an error under every scheme and leaves the grid unchanged:
// none of them implements wrap-around boundaries, and quietly running
// constant boundaries instead would return a wrong answer. The domains
// are multiples of the lattice period (Block 8, TimeTile 2: period 12),
// so the tessellation is turned away by its executor, not by Validate.
func TestPeriodicRejectedOutsideRunND(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	const n, steps = 24, 4
	newGrid := func(d int) (g any, buf *[2][]float64, step *int) {
		switch d {
		case 1:
			g1 := NewGrid1D(n, 1)
			g, buf, step = g1, &g1.Buf, &g1.Step
		case 2:
			g2 := NewGrid2D(n, n, 1, 1)
			g, buf, step = g2, &g2.Buf, &g2.Step
		default:
			g3 := NewGrid3D(n, n, n, 1, 1, 1)
			g, buf, step = g3, &g3.Buf, &g3.Step
		}
		for p := range buf {
			for i := range buf[p] {
				buf[p][i] = float64(i%7+p) / 7
			}
		}
		return g, buf, step
	}
	spec := []*Stencil{nil, Heat1D, Heat2D, Heat3D}
	pipe := func(s *Stencil) *Pipeline { return &Pipeline{Name: s.Name, Stages: []Stage{{Spec: s, In: 0}}} }
	entries := []struct {
		name string
		run  func(g any, s *Stencil, m *Mask, opt Options) error
	}{
		{"Run", func(g any, s *Stencil, _ *Mask, opt Options) error {
			switch g := g.(type) {
			case *Grid1D:
				return eng.Run1D(g, s, steps, opt)
			case *Grid2D:
				return eng.Run2D(g, s, steps, opt)
			}
			return eng.Run3D(g.(*Grid3D), s, steps, opt)
		}},
		{"RunPipeline", func(g any, s *Stencil, _ *Mask, opt Options) error {
			switch g := g.(type) {
			case *Grid1D:
				return eng.RunPipeline1D(g, pipe(s), steps, nil, opt)
			case *Grid2D:
				return eng.RunPipeline2D(g, pipe(s), steps, nil, opt)
			}
			return eng.RunPipeline3D(g.(*Grid3D), pipe(s), steps, nil, opt)
		}},
		{"RunMasked", func(g any, s *Stencil, m *Mask, opt Options) error {
			switch g := g.(type) {
			case *Grid1D:
				return eng.RunMasked1D(g, s, steps, m, opt)
			case *Grid2D:
				return eng.RunMasked2D(g, s, steps, m, opt)
			}
			return eng.RunMasked3D(g.(*Grid3D), s, steps, m, opt)
		}},
	}
	for _, e := range entries {
		for d := 1; d <= 3; d++ {
			for _, sc := range Schemes() {
				name := e.name + string(rune('0'+d)) + "D/" + sc.String()
				g, buf, step := newGrid(d)
				want := [2][]float64{slices.Clone(buf[0]), slices.Clone(buf[1])}
				opt := Options{Scheme: sc, TimeTile: 2, Block: []int{8, 8, 8}[:d], Periodic: true}
				err := e.run(g, spec[d], NewMask([]int{n, n, n}[:d]), opt)
				if err == nil {
					t.Errorf("%s: periodic run accepted", name)
					continue
				}
				// Every entry point takes the tessellation and naive, so
				// only the periodic flag can have turned those away.
				named := sc == Tessellation || sc == Naive
				if named && !strings.Contains(err.Error(), "periodic") {
					t.Errorf("%s: error %q does not name the periodic boundary", name, err)
				}
				if !slices.Equal(buf[0], want[0]) || !slices.Equal(buf[1], want[1]) || *step != 0 {
					t.Errorf("%s: rejected run changed the grid", name)
				}
			}
		}
	}
}
