// Phased execution: the phase-boundary hook the online autotuner
// builds on. A tessellation run is a sequence of phases of BT time
// steps; consecutive phases are separated by full synchronization
// (§4.3: every region ends with a barrier, and the trailing clamped
// regions of a segment bring every grid point to exactly the same time
// step). That boundary is therefore the one point where swapping the
// tile parameters (BT, Big) is legal: the next segment starts from a
// uniform-time grid exactly as a fresh run would, so the concatenation
// of segments is bitwise identical to a single fixed-schedule run.

package core

import "fmt"

// PhaseHook is consulted between segments of a phased run, at a full
// synchronization point where every grid point has advanced exactly
// stepsDone steps. cur is the configuration the finished segment ran
// with. Returning nil keeps it; returning a new Config re-tiles the
// remaining steps. The returned config must describe the same domain
// and slopes (it is validated before use).
type PhaseHook func(stepsDone int, cur *Config) *Config

// RunPhased drives run over segments of every*cfg.BT steps (every < 1
// means 1), building each segment's Schedule and consulting hook
// between segments, swapping in any replacement configuration for the
// remainder of the run; a nil hook degrades to a single segment of all
// steps.
func RunPhased(steps int, cfg *Config, every int, hook PhaseHook, run func(seg *Schedule) error) error {
	if every < 1 {
		every = 1
	}
	done := 0
	for {
		seg := steps - done
		if hook != nil {
			seg = min(seg, every*cfg.BT)
		}
		sched, err := NewSchedule(cfg, seg)
		if err != nil {
			return err
		}
		if err := run(sched); err != nil {
			return err
		}
		if done += seg; done >= steps {
			return nil
		}
		if next := hook(done, cfg); next != nil {
			if err := next.Validate(); err != nil {
				return fmt.Errorf("core: phase hook at step %d returned invalid config: %w", done, err)
			}
			cfg = next
		}
	}
}
