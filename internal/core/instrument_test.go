package core

import (
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Telemetry must observe the run without perturbing it: identical
// bits with instrumentation on and off, and the points counter must
// equal the iteration-space volume (every point, every step, exactly
// once — Theorem 3.5 as seen by the metrics).
func TestTelemetryBitwiseIdenticalAndExactPointCount(t *testing.T) {
	const nx, ny, steps = 96, 80, 11
	run := func() *grid.Grid2D {
		g := grid.NewGrid2D(nx, ny, 1, 1)
		g.Fill(func(x, y int) float64 { return float64(x*7+y*3) / 11 })
		g.SetBoundary(1)
		cfg := DefaultConfig([]int{nx, ny}, stencil.Heat2D.Slopes)
		pool := par.NewPool(4)
		defer pool.Close()
		if err := Run2D(g, stencil.OneStage(stencil.Heat2D), mustSchedule(t, &cfg, steps), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		return g
	}

	base := run()

	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.DefaultTracer.Reset()
	before := telemetry.PointsUpdated.Value()
	instr := run()
	updated := telemetry.PointsUpdated.Value() - before

	for p := 0; p < 2; p++ {
		for i := range base.Buf[p] {
			if base.Buf[p][i] != instr.Buf[p][i] {
				t.Fatalf("buffer %d differs at %d: %v != %v (telemetry changed the numerics)",
					p, i, base.Buf[p][i], instr.Buf[p][i])
			}
		}
	}
	if want := uint64(nx * ny * steps); updated != want {
		t.Fatalf("points updated = %d, want exactly %d", updated, want)
	}
	if telemetry.DefaultTracer.Len() == 0 {
		t.Fatal("no trace spans recorded during an instrumented run")
	}
	if telemetry.BlocksExecuted.Value() == 0 {
		t.Fatal("blocks counter did not move")
	}
	if telemetry.StageDuration.Histogram("stage").Count() == 0 {
		t.Fatal("stage duration histogram did not move")
	}
}
