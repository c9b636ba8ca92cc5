package main

// Distributed validation mode: N OS processes (one per rank, possibly
// on different machines) run the same deterministic workload over TCP
// and assert that the gathered result is bitwise identical to a
// single-rank reference computed locally. This is the cross-machine
// counterpart of the in-process dist tests. Two extents in -n run
// heat-2d, three heat-3d.
//
//	# two processes on one host
//	tessvalidate -dist tcp -rank 0 -peers 127.0.0.1:7471,127.0.0.1:7472 -n 96,40 -big 12,12 -bt 3 -steps 10 &
//	tessvalidate -dist tcp -rank 1 -peers 127.0.0.1:7471,127.0.0.1:7472 -n 96,40 -big 12,12 -bt 3 -steps 10

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"tessellate"
	"tessellate/internal/autotune"
	"tessellate/internal/core"
	"tessellate/internal/dist"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// distOptions carries the -dist* flag values from main.
type distOptions struct {
	rank     int
	peers    string
	sync     bool
	workers  int
	timeout  time.Duration
	autotune bool
}

// runDist executes the distributed validation for one rank and
// returns an error on any failure, including bitwise disagreement.
func runDist(cfg *core.Config, steps int, o distOptions) error {
	d := len(cfg.N)
	if d != 2 && d != 3 {
		return fmt.Errorf("-dist validates 2D and 3D workloads (got %dD); use -n nx,ny or -n nx,ny,nz", d)
	}
	if o.autotune && d != 2 {
		return fmt.Errorf("-dist-autotune tunes 2D slabs only (got %dD)", d)
	}
	addrs := strings.Split(o.peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	nranks := len(addrs)
	if o.rank < 0 || o.rank >= nranks {
		return fmt.Errorf("-rank %d outside -peers list of %d", o.rank, nranks)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// The per-peer exchange histograms are the autotune signal; record
	// them whether or not -dist-autotune is set so operators can
	// scrape them either way.
	telemetry.Enable()

	tr, err := dist.NewTCPTransportOpts(o.rank, addrs, dist.TCPOptions{
		DialTimeout:  o.timeout,
		ReadTimeout:  o.timeout,
		WriteTimeout: o.timeout,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	// Same deterministic initial state in every process: the boundary
	// value 0.5 in every halo cell, random interior values.
	spec := stencil.Heat2D
	if d == 3 {
		spec = stencil.Heat3D
	}
	initial, iv := newDistGrid(cfg.N, spec)
	rng := rand.New(rand.NewSource(42))
	for _, b := range iv.Buf {
		for i := range b {
			b[i] = 0.5
		}
	}
	interior(iv, func(i int) {
		v := rng.Float64()
		iv.Buf[0][i], iv.Buf[1][i] = v, v
	})

	r, err := dist.NewRank(o.rank, nranks, tr, cfg, spec, o.workers)
	if err != nil {
		return err
	}
	defer r.Close()
	r.SetOverlap(!o.sync)
	if err := r.Scatter(initial); err != nil {
		return err
	}
	start := time.Now()
	if err := r.Run(steps); err != nil {
		return fmt.Errorf("rank %d run: %w", o.rank, err)
	}
	elapsed := time.Since(start)

	mode := "overlapped"
	if o.sync {
		mode = "sync"
	}

	// Root gathers every territory and compares bitwise against a
	// locally computed single-rank reference.
	if o.rank == 0 {
		got, gv := newDistGrid(cfg.N, spec)
		if err := r.GatherTo(0, got); err != nil {
			return err
		}
		ref, rv := newDistGrid(cfg.N, spec)
		copy(rv.Buf[0], iv.Buf[0])
		copy(rv.Buf[1], iv.Buf[1])
		if err := naive.Run(rv, stencil.OneStage(spec), steps, nil, nil); err != nil {
			return err
		}
		var res verify.Result
		if d == 2 {
			res = verify.Grids2D(got.(*grid.Grid2D), ref.(*grid.Grid2D))
		} else {
			res = verify.Grids3D(got.(*grid.Grid3D), ref.(*grid.Grid3D))
		}
		if !res.Equal {
			return fmt.Errorf("MISMATCH: %v", res.Error(mode+"-tcp"))
		}
		fmt.Printf("ok: rank 0/%d gathered %v after %d steps over tcp (%s exchange, %v): bitwise identical to single-rank, checksum %x\n",
			nranks, cfg.N, steps, mode, elapsed.Round(time.Millisecond), checksumBits(gv))
	} else {
		if err := r.GatherTo(0, nil); err != nil {
			return err
		}
		fmt.Printf("ok: rank %d/%d contributed %v territory (%s exchange, %v)\n",
			o.rank, nranks, r.Partition(), mode, elapsed.Round(time.Millisecond))
	}

	if o.autotune {
		return reportDistAutotune(r, cfg, o)
	}
	return nil
}

// reportDistAutotune re-tunes (BT, Big) for this rank's slab with the
// exchange cost measured during the run folded into the objective.
func reportDistAutotune(r *dist.Rank, cfg *core.Config, o distOptions) error {
	var peers []int
	if o.rank > 0 {
		peers = append(peers, o.rank-1)
	}
	part := r.Partition()
	nranks := len(strings.Split(o.peers, ","))
	if o.rank < nranks-1 {
		peers = append(peers, o.rank+1)
	}
	cost := dist.MeasuredExchangeCost(peers)
	res, err := autotune.SearchDist(tessellate.Heat2D,
		[]int{part.Width(), cfg.N[1]}, o.workers,
		autotune.Budget{MaxTrials: 12, MinSteps: 16},
		autotune.DistCost{PerExchangeSeconds: cost})
	if err != nil {
		return fmt.Errorf("dist autotune: %w", err)
	}
	fmt.Printf("autotune: rank %d measured %.3gs/exchange -> BT=%d Big=%v (%.1f effective MUpd/s over %d trials)\n",
		o.rank, cost, res.Best.TimeTile, res.Best.Block, res.BestRate, len(res.Trials))
	return nil
}

// newDistGrid returns a 2D or 3D grid of extents n with spec's halo,
// and its view.
func newDistGrid(n []int, spec *stencil.Spec) (any, grid.View) {
	s := spec.Slopes
	if len(n) == 2 {
		g := grid.NewGrid2D(n[0], n[1], s[0], s[1])
		return g, g.View()
	}
	g := grid.NewGrid3D(n[0], n[1], n[2], s[0], s[1], s[2])
	return g, g.View()
}

// interior calls f with the flat index of every interior point of v,
// dimension 0 outermost.
func interior(v grid.View, f func(i int)) {
	for x := 0; x < v.N[0]; x++ {
		for y := 0; y < v.N[1]; y++ {
			for z := 0; z < v.N[2]; z++ {
				f(v.Index([3]int{x, y, z}))
			}
		}
	}
}

// checksumBits folds the current buffer's interior in fixed order;
// identical across processes iff the field is bitwise identical.
func checksumBits(v grid.View) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	buf := v.Src(0)
	interior(v, func(i int) {
		h ^= math.Float64bits(buf[i])
		h *= 1099511628211
	})
	return h
}
