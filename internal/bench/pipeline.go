package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tessellate"
)

// Pipeline and masked-domain comparison: the experiments behind
// stencilbench's -pipeline and -mask modes. Both run the tessellated
// executor against the naive reference on the same seeded input and
// enforce bitwise checksum agreement — the fused pipeline evaluates
// exactly the stage tree the barriered oracle evaluates, and the
// masked fast path updates exactly the active set — so this is an
// equality check, not a tolerance.

// PipelineResult is one (pipeline workload, scheme) measurement: the
// median of Repeats reseeded timed runs after one untimed warm-up.
type PipelineResult struct {
	Workload string `json:"workload"`
	Stages   int    `json:"stages"`
	Scheme   string `json:"scheme"`
	Repeats  int    `json:"repeats"`
	// Seconds is the median run time, SecondsIQR the spread between
	// its quartiles.
	Seconds    float64 `json:"seconds"`
	SecondsIQR float64 `json:"seconds_iqr"`
	// MUpdates counts millions of logical (whole-pipeline) point
	// updates per second.
	MUpdates float64 `json:"mupdates"`
	// SpeedupVsNaive is MUpdates relative to the naive run of the same
	// workload (1.0 for naive itself).
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	// Checksum is the first timed repeat's; every repeat is checked
	// bitwise against naive on the same seed.
	Checksum float64 `json:"checksum"`
}

// PipelineReport is the full -pipeline output (the schema of
// BENCH_PIPELINE.json).
type PipelineReport struct {
	Threads     int              `json:"threads"`
	Scale       int              `json:"scale"`
	Results     []PipelineResult `json:"results"`
	GeneratedBy string           `json:"generated_by"`
}

// pipelineCase is one multi-stage workload of the -pipeline mode.
type pipelineCase struct {
	name  string
	p     *tessellate.Pipeline
	n     []int
	steps int
	bt    int
}

// pipelineCases builds the measured pipelines at the given scale:
// an SSP-RK2 heat stepper, a split high-order chain and a leapfrog
// stepper reading the previous time level — the three stage shapes
// the executor supports.
func pipelineCases(scale int) []pipelineCase {
	w := ByFigure("10")[0].Scaled(scale) // heat-2d problem size
	return []pipelineCase{
		{
			name: "rk2-heat2d",
			p: &tessellate.Pipeline{Name: "rk2-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{Spec: tessellate.Heat2D, In: 1},
				{A: 0.5, In: 0, B: 0.5, InB: 2},
			}},
			n: w.N, steps: w.Steps, bt: maxInt(w.TessBT/2, 1),
		},
		{
			name: "split-heat-box2d",
			p: &tessellate.Pipeline{Name: "split-heat-box2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{Spec: tessellate.Box2D9, In: 1},
			}},
			n: w.N, steps: w.Steps, bt: maxInt(w.TessBT/2, 1),
		},
		{
			name: "leapfrog-heat2d",
			p: &tessellate.Pipeline{Name: "leapfrog-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{A: 2, In: 1, B: -1, InB: tessellate.PrevState},
			}},
			n: w.N, steps: w.Steps, bt: w.TessBT,
		},
	}
}

// pipelineRepeats is the number of timed runs per (workload, scheme);
// each is reseeded, and the report carries their median.
const pipelineRepeats = 7

// ComparePipelines measures the fused tessellated pipeline executor
// against the barriered naive reference on each pipeline workload.
// Each workload reuses one grid, so first touch falls on the untimed
// warm-up; then naive and tessellation alternate over pipelineRepeats
// reseeded inputs, each pair checked for bitwise checksum agreement.
// The scheme that runs first swaps every repeat, so an order effect
// (a warm cache, a clock ramp) does not fall on one scheme only.
func ComparePipelines(scale, threads int) (PipelineReport, error) {
	rep := PipelineReport{
		Threads:     threads,
		Scale:       scale,
		GeneratedBy: "stencilbench -pipeline",
	}
	eng := tessellate.NewEngine(threads)
	defer eng.Close()
	schemes := []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation}
	for _, c := range pipelineCases(scale) {
		if err := c.p.Validate(); err != nil {
			return rep, fmt.Errorf("bench: pipeline %s: %w", c.name, err)
		}
		slopes := c.p.Slopes()
		g := tessellate.NewGrid2D(c.n[0], c.n[1], slopes[0], slopes[1])
		secs := make([][]float64, len(schemes))
		var checksum float64 // first timed repeat's; both schemes agree
		// Repeat -1 is the warm-up: checked, not timed.
		for r := -1; r < pipelineRepeats; r++ {
			var sums [2]float64
			for j := range schemes {
				k := j ^ (r & 1) // naive first on even r, tessellation on odd
				scheme := schemes[k]
				seedPipeline2D(g, c.name, r)
				opt := tessellate.Options{Scheme: scheme, TimeTile: c.bt}
				start := time.Now()
				if err := eng.RunPipeline2D(g, c.p, c.steps, nil, opt); err != nil {
					return rep, fmt.Errorf("bench: %s/%v: %w", c.name, scheme, err)
				}
				el := time.Since(start).Seconds()
				sums[k] = checksum2D(g)
				if r >= 0 {
					secs[k] = append(secs[k], el)
				}
			}
			if sums[1] != sums[0] {
				return rep, fmt.Errorf("bench: %s repeat %d: %v checksum %v != naive %v",
					c.name, r, schemes[1], sums[1], sums[0])
			}
			if r == 0 {
				checksum = sums[0]
			}
		}
		updates := float64(c.n[0]) * float64(c.n[1]) * float64(c.steps)
		var naiveSecs float64
		for k, scheme := range schemes {
			sort.Float64s(secs[k])
			med := quantile(secs[k], 0.5)
			if k == 0 {
				naiveSecs = med
			}
			rep.Results = append(rep.Results, PipelineResult{
				Workload:       fmt.Sprintf("%s N=%v T=%d", c.name, c.n, c.steps),
				Stages:         c.p.NumStages(),
				Scheme:         scheme.String(),
				Repeats:        len(secs[k]),
				Seconds:        med,
				SecondsIQR:     quantile(secs[k], 0.75) - quantile(secs[k], 0.25),
				MUpdates:       updates / med / 1e6,
				SpeedupVsNaive: naiveSecs / med,
				Checksum:       checksum,
			})
		}
	}
	return rep, nil
}

// MaskResult is one (masked workload, scheme) measurement.
type MaskResult struct {
	Workload string `json:"workload"`
	Mask     string `json:"mask"`
	// ActiveFraction is the share of domain cells the mask leaves
	// active; MUpdates counts active-cell updates only.
	ActiveFraction float64 `json:"active_fraction"`
	Scheme         string  `json:"scheme"`
	Seconds        float64 `json:"seconds"`
	MUpdates       float64 `json:"mupdates"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	Checksum       float64 `json:"checksum"`
}

// MaskReport is the full -mask output (the schema of BENCH_MASK.json).
type MaskReport struct {
	Threads     int          `json:"threads"`
	Scale       int          `json:"scale"`
	Results     []MaskResult `json:"results"`
	GeneratedBy string       `json:"generated_by"`
}

// CompareMasks measures the masked tessellated executors against the
// masked naive reference on L-shaped and obstacle domains, enforcing
// bitwise checksum agreement.
func CompareMasks(scale, threads int) (MaskReport, error) {
	rep := MaskReport{
		Threads:     threads,
		Scale:       scale,
		GeneratedBy: "stencilbench -mask",
	}
	eng := tessellate.NewEngine(threads)
	defer eng.Close()
	w2 := ByFigure("10")[0].Scaled(scale)  // heat-2d
	w3 := ByFigure("11a")[0].Scaled(scale) // heat-3d
	cases := []struct {
		w    Workload
		mask string
	}{
		{w2, "lshape"},
		{w2, "obstacle"},
		{w3, "obstacle"},
	}
	for _, c := range cases {
		spec, err := tessellate.StencilByName(c.w.Kernel)
		if err != nil {
			return rep, err
		}
		m, err := tessellate.NamedMask(c.mask, c.w.N)
		if err != nil {
			return rep, err
		}
		volume := 1
		for _, nk := range c.w.N {
			volume *= nk
		}
		frac := float64(m.ActiveCount()) / float64(volume)
		updates := float64(m.ActiveCount()) * float64(c.w.Steps)
		var naiveMUpdates, naiveChecksum float64
		for _, scheme := range []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation} {
			opt := tessellate.Options{Scheme: scheme, TimeTile: c.w.TessBT}
			var secs, sum float64
			switch len(c.w.N) {
			case 2:
				g := tessellate.NewGrid2D(c.w.N[0], c.w.N[1], spec.Slopes[0], spec.Slopes[1])
				seed2D(g, c.w.Kernel)
				start := time.Now()
				if err := eng.RunMasked2D(g, spec, c.w.Steps, m, opt); err != nil {
					return rep, fmt.Errorf("bench: %s/%s/%v: %w", c.w, c.mask, scheme, err)
				}
				secs, sum = time.Since(start).Seconds(), checksum2D(g)
			case 3:
				g := tessellate.NewGrid3D(c.w.N[0], c.w.N[1], c.w.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
				seed3D(g, c.w.Kernel)
				start := time.Now()
				if err := eng.RunMasked3D(g, spec, c.w.Steps, m, opt); err != nil {
					return rep, fmt.Errorf("bench: %s/%s/%v: %w", c.w, c.mask, scheme, err)
				}
				secs, sum = time.Since(start).Seconds(), checksum3D(g)
			default:
				return rep, fmt.Errorf("bench: mask comparison supports 2D/3D, got rank %d", len(c.w.N))
			}
			speedup := 1.0
			if scheme == tessellate.Naive {
				naiveMUpdates, naiveChecksum = updates/secs/1e6, sum
			} else {
				if sum != naiveChecksum {
					return rep, fmt.Errorf("bench: %s/%s tessellation checksum %v != naive %v",
						c.w, c.mask, sum, naiveChecksum)
				}
				speedup = updates / secs / 1e6 / naiveMUpdates
			}
			rep.Results = append(rep.Results, MaskResult{
				Workload:       c.w.String(),
				Mask:           c.mask,
				ActiveFraction: frac,
				Scheme:         scheme.String(),
				Seconds:        secs,
				MUpdates:       updates / secs / 1e6,
				SpeedupVsNaive: speedup,
				Checksum:       sum,
			})
		}
	}
	return rep, nil
}

// seedPipeline2D seeds a pipeline grid deterministically per workload
// name and repeat, like seed2D does per kernel.
func seedPipeline2D(g *tessellate.Grid2D, name string, repeat int) {
	rng := rand.New(rand.NewSource(int64(len(name))<<8 + int64(repeat)))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}
