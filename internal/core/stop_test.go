package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// stopCase runs one body over a freshly seeded grid with the given stop
// flag and returns the current buffer, Step and error.
type stopCase struct {
	name string
	run  func(stop *atomic.Bool) ([]float64, int, error)
}

const stopSteps = 9

// stopCases covers the one entry point per dimension and body: a plain
// Spec, the same Spec under the lshape mask, and an RK2 pipeline.
func stopCases(t *testing.T, pool *par.Pool) []stopCase {
	mask := func(masked bool, n ...int) *grid.Mask {
		if !masked {
			return nil
		}
		return lshapeMask(t, n...)
	}
	run1 := func(p *stencil.Pipeline, masked bool, stop *atomic.Bool) ([]float64, int, error) {
		n, s := []int{97}, p.Slopes()
		cfg := DefaultConfig(n, s)
		g := grid.NewGrid1D(n[0], s[0])
		fill1D(g, 7)
		err := Run(g.View(), p, mustSchedule(t, &cfg, stopSteps), pool, mask(masked, n...), stop, nil)
		return g.Buf[g.Step&1], g.Step, err
	}
	run2 := func(p *stencil.Pipeline, masked bool, stop *atomic.Bool) ([]float64, int, error) {
		n, s := []int{64, 48}, p.Slopes()
		cfg := DefaultConfig(n, s)
		g := grid.NewGrid2D(n[0], n[1], s[0], s[1])
		fill2D(g, 7)
		err := Run(g.View(), p, mustSchedule(t, &cfg, stopSteps), pool, mask(masked, n...), stop, nil)
		return g.Buf[g.Step&1], g.Step, err
	}
	run3 := func(p *stencil.Pipeline, masked bool, stop *atomic.Bool) ([]float64, int, error) {
		n, s := []int{18, 15, 20}, p.Slopes()
		cfg := DefaultConfig(n, s)
		g := grid.NewGrid3D(n[0], n[1], n[2], s[0], s[1], s[2])
		fill3D(g, 7)
		err := Run(g.View(), p, mustSchedule(t, &cfg, stopSteps), pool, mask(masked, n...), stop, nil)
		return g.Buf[g.Step&1], g.Step, err
	}
	dims := []struct {
		name string
		spec *stencil.Spec
		run  func(p *stencil.Pipeline, masked bool, stop *atomic.Bool) ([]float64, int, error)
	}{
		{"1d", stencil.Heat1D, run1},
		{"2d", stencil.Heat2D, run2},
		{"3d", stencil.Heat3D, run3},
	}
	var cases []stopCase
	for _, d := range dims {
		bodies := []struct {
			name   string
			p      *stencil.Pipeline
			masked bool
		}{
			{"spec", stencil.OneStage(d.spec), false},
			{"masked-spec", stencil.OneStage(d.spec), true},
			{"rk2", rk2ish(d.spec), false},
		}
		for _, b := range bodies {
			run, b := d.run, b
			cases = append(cases, stopCase{d.name + "/" + b.name, func(stop *atomic.Bool) ([]float64, int, error) {
				return run(b.p, b.masked, stop)
			}})
		}
	}
	return cases
}

// A stop flag that is already set aborts at the first region boundary
// with ErrStopped and leaves Step unchanged: the run never completed,
// so its result must not masquerade as one.
func TestRunScheduledStopAborts(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, c := range stopCases(t, pool) {
		var stop atomic.Bool
		stop.Store(true)
		_, step, err := c.run(&stop)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: pre-stopped run returned %v, want ErrStopped", c.name, err)
		}
		if step != 0 {
			t.Fatalf("%s: aborted run advanced Step to %d", c.name, step)
		}
	}
}

// A flag that is never set gives bitwise the nil-flag result.
func TestRunScheduledStopNilEquivalent(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, c := range stopCases(t, pool) {
		want, _, err := c.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var stop atomic.Bool
		got, step, err := c.run(&stop)
		if err != nil || step != stopSteps {
			t.Fatalf("%s: unset flag: Step %d, err %v", c.name, step, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: unset-flag run diverges from the nil-flag run", c.name)
		}
	}
}
