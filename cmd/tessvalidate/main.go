// Command tessvalidate checks a tessellation configuration against the
// executable form of the paper's Theorems 3.5 and 3.6: it replays the
// generated schedule on an update-count grid and verifies exactly-once
// coverage per time step, the Jacobi dependence condition, and safety
// under any intra-region interleaving. With -fuzz it validates many
// random configurations instead, about a third of them periodic (each
// extent a multiple of the lattice period, coordinates wrapping mod N).
//
// Usage:
//
//	tessvalidate -n 64,64 -big 16,24 -bt 4 -steps 13
//	tessvalidate -n 100 -big 20 -bt 5 -steps 17 -slopes 2 -nomerge
//	tessvalidate -fuzz 200 -seed 1
//
// With -dist tcp the process becomes one rank of a multi-process run
// that asserts cross-rank bitwise agreement against a single-rank
// reference (see dist.go):
//
//	tessvalidate -dist tcp -rank 0 -peers 127.0.0.1:7471,127.0.0.1:7472 -n 96,40 -big 12,12 -bt 3 -steps 10
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/telemetry"
)

func main() {
	var (
		nFlag   = flag.String("n", "48,48", "domain extents, comma separated")
		bigFlag = flag.String("big", "12,12", "coarse block sizes, comma separated")
		slFlag  = flag.String("slopes", "", "stencil slopes per dim (default all 1)")
		bt      = flag.Int("bt", 3, "time tile height")
		steps   = flag.Int("steps", 10, "time steps to validate")
		noMerge = flag.Bool("nomerge", false, "validate the unmerged (d+1 sync) schedule")
		fuzz    = flag.Int("fuzz", 0, "validate this many random configurations instead")
		seed    = flag.Int64("seed", 1, "fuzz seed")
		telAddr = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address while validating (profile long fuzz runs)")

		distMode  = flag.String("dist", "", `distributed mode: "tcp" runs this process as one rank and checks cross-rank bitwise agreement`)
		distRank  = flag.Int("rank", 0, "this process's rank in -peers (with -dist)")
		distPeers = flag.String("peers", "", "comma-separated host:port listen addresses, one per rank (with -dist)")
		distSync  = flag.Bool("dist-sync", false, "use the synchronous exchange instead of the overlapped default (with -dist)")
		distWrk   = flag.Int("dist-workers", 1, "worker pool size per rank (with -dist)")
		distTmo   = flag.Duration("dist-timeout", 30*time.Second, "dial/read/write deadline for the TCP transport (with -dist)")
		distTune  = flag.Bool("dist-autotune", false, "after the run, re-tune (BT, Big) for this rank's slab with the measured exchange cost (with -dist)")
	)
	flag.Parse()

	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", srv.Addr())
	}

	if *fuzz > 0 {
		if err := fuzzConfigs(*fuzz, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tessvalidate:", err)
			os.Exit(1)
		}
		fmt.Printf("ok: %d random configurations validated\n", *fuzz)
		return
	}

	n, err := parseInts(*nFlag)
	if err != nil {
		fatal(err)
	}
	big, err := parseInts(*bigFlag)
	if err != nil {
		fatal(err)
	}
	slopes := make([]int, len(n))
	for k := range slopes {
		slopes[k] = 1
	}
	if *slFlag != "" {
		if slopes, err = parseInts(*slFlag); err != nil {
			fatal(err)
		}
	}
	cfg := core.Config{N: n, Slopes: slopes, BT: *bt, Big: big, Merge: !*noMerge}

	if *distMode != "" {
		if *distMode != "tcp" {
			fatal(fmt.Errorf("unknown -dist mode %q (only \"tcp\")", *distMode))
		}
		if *distPeers == "" {
			fatal(fmt.Errorf("-dist tcp requires -peers"))
		}
		if err := runDist(&cfg, *steps, distOptions{
			rank: *distRank, peers: *distPeers, sync: *distSync,
			workers: *distWrk, timeout: *distTmo, autotune: *distTune,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tessvalidate:", err)
			os.Exit(1)
		}
		return
	}

	if err := core.ValidateSchedule(&cfg, *steps); err != nil {
		fmt.Fprintln(os.Stderr, "INVALID:", err)
		os.Exit(1)
	}
	fmt.Printf("ok: %+v for %d steps — exactly-once coverage, dependences and concurrency safety hold\n", cfg, *steps)
}

func fuzzConfigs(iters int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < iters; i++ {
		d := 1 + rng.Intn(3)
		cfg := core.Config{
			N:        make([]int, d),
			Slopes:   make([]int, d),
			Big:      make([]int, d),
			BT:       1 + rng.Intn(4),
			Merge:    rng.Intn(2) == 0,
			Periodic: rng.Intn(3) == 0,
		}
		for k := 0; k < d; k++ {
			cfg.Slopes[k] = 1 + rng.Intn(2)/d // slope 2 only in 1D to bound cost
			minBig := 2 * cfg.BT * cfg.Slopes[k]
			cfg.Big[k] = minBig + rng.Intn(minBig+4)
			cfg.N[k] = 3 + rng.Intn(90/d)
			if cfg.Periodic {
				// One to 4-d lattice periods: a periodic extent must be
				// a multiple of the period.
				cfg.N[k] = cfg.Spacing(k) * (1 + rng.Intn(4-d))
			}
		}
		steps := 1 + rng.Intn(3*cfg.BT+3)
		if err := core.ValidateSchedule(&cfg, steps); err != nil {
			return fmt.Errorf("iteration %d: cfg=%+v steps=%d: %w", i, cfg, steps, err)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("tessvalidate: bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tessvalidate:", err)
	os.Exit(2)
}
