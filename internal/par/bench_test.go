package par

import (
	"fmt"
	"testing"
)

// The pool's per-region dispatch overhead bounds how small a
// tessellation stage can profitably be. BenchmarkPoolFor sweeps it
// over region sizes from stages smaller than the worker count up to
// the largest block counts the schedule generator emits, in both
// scheduling modes: dynamic (one shared cursor) and sticky (per-worker
// deque reloads). The body bumps a per-worker, cache-line-padded
// counter so it adds no contention of its own; ns/block is the
// dispatch cost per iteration.
func BenchmarkPoolFor(b *testing.B) {
	type paddedCount struct {
		v int64
		_ [56]byte
	}
	for _, sticky := range []bool{false, true} {
		mode := "dynamic"
		if sticky {
			mode = "sticky"
		}
		for _, n := range []int{16, 64, 256, 1024, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				p := NewPoolOpts(0, PoolOptions{Sticky: sticky})
				defer p.Close()
				sinks := make([]paddedCount, p.Workers())
				body := func(i, w int) { sinks[w].v++ }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.ForSticky(n, body)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/block")
			})
		}
	}
}

func BenchmarkLimiterPar(b *testing.B) {
	l := NewLimiter(4)
	for i := 0; i < b.N; i++ {
		l.Par(func() {}, func() {})
	}
}
