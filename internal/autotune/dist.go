package autotune

import (
	"fmt"
	"sort"

	"tessellate"
	"tessellate/internal/core"
)

// DistCost carries the measured communication cost a distributed rank
// folds into its tile search.
type DistCost struct {
	// PerExchangeSeconds is the expected wall cost of one full halo
	// exchange with all neighbours — typically
	// dist.MeasuredExchangeCost(peers), the mean of the per-peer
	// exchange-latency histograms telemetry records during real runs.
	PerExchangeSeconds float64
}

// SearchDist tunes (BT, Big) for one distributed rank. slabDims are
// the rank's slab extents (its territory, not the global domain); the
// trial objective is the measured slab compute time plus
// cost.PerExchangeSeconds charged once per parallel region of the
// trial schedule — the exchange cadence of dist.Rank.Run. Higher
// measured latency therefore pushes the winner toward taller time
// tiles (fewer regions per step to amortize each exchange over),
// exactly the BT/latency trade the Wittmann-Hager-Wellein blueprint
// calls for. Candidates whose exchange halo Big[0]+slope exceeds the
// slab width are skipped (Slabs would reject them).
//
// The compute time is measured on Engine runs, which walk the same
// core executor and dispatch to the same kernel tier a rank's Run
// does, so a trial times the kernels the rank will run.
//
// The returned Trials carry the measured compute Seconds and the
// charged ExchangeSeconds separately; MUpdates is the effective rate
// including the charge, and Best maximizes it.
func SearchDist(spec *tessellate.Stencil, slabDims []int, threads int, budget Budget, cost DistCost) (Result, error) {
	if spec.Dims != len(slabDims) {
		return Result{}, fmt.Errorf("autotune: %s is %dD but %d slab extents given", spec.Name, spec.Dims, len(slabDims))
	}
	for k, n := range slabDims {
		if n < 4*spec.Slopes[k] {
			return Result{}, fmt.Errorf("autotune: slab extent %d of dimension %d too small to tile", n, k)
		}
	}
	budget.defaults()

	eng := tessellate.NewEngine(threads)
	defer eng.Close()

	points := 1
	for _, n := range slabDims {
		points *= n
	}
	var res Result
	for _, opt := range candidates(spec, slabDims, budget.MaxTrials) {
		if opt.Block[0]+spec.Slopes[0] > slabDims[0] {
			continue // halo wider than the slab: Slabs rejects this tiling
		}
		tr, err := measure(eng, spec, slabDims, opt, budget.MinSteps)
		if err != nil {
			return Result{}, err
		}
		// Charge one exchange per parallel region of the trial
		// schedule, the cadence dist.Rank.Run exchanges at.
		steps := trialSteps(opt.TimeTile, budget.MinSteps)
		cfg := core.Config{
			N: slabDims, Slopes: spec.Slopes,
			BT: opt.TimeTile, Big: opt.Block, Merge: !opt.NoMerge,
		}
		tr.ExchangeSeconds = cost.PerExchangeSeconds * float64(len(cfg.Regions(steps)))
		tr.MUpdates = float64(points) * float64(steps) / (tr.Seconds + tr.ExchangeSeconds) / 1e6
		res.Trials = append(res.Trials, tr)
	}
	if len(res.Trials) == 0 {
		return Result{}, fmt.Errorf("autotune: no candidate tiling fits a slab of %v", slabDims)
	}
	sort.Slice(res.Trials, func(i, j int) bool { return res.Trials[i].MUpdates > res.Trials[j].MUpdates })
	res.Best = res.Trials[0].Options
	res.BestRate = res.Trials[0].MUpdates
	return res, nil
}
