// Command tessautotune searches the tessellation tile-parameter space
// for a given kernel and problem size and prints the ranked candidates
// — the auto-tuning workflow the paper names as its ongoing work.
//
// Usage:
//
//	tessautotune -kernel heat-2d -n 2000,2000
//	tessautotune -kernel 3d27p -n 128,128,128 -trials 12 -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"tessellate"
	"tessellate/internal/autotune"
	"tessellate/internal/telemetry"
)

func main() {
	var (
		kernel  = flag.String("kernel", "heat-2d", "stencil kernel name (see stencilbench -list)")
		nFlag   = flag.String("n", "1000,1000", "domain extents, comma separated")
		trials  = flag.Int("trials", 24, "maximum timed candidates")
		steps   = flag.Int("steps", 32, "minimum steps per trial")
		threads = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		telAddr = flag.String("telemetry", "", "serve /metrics, /trace and /debug/pprof on this address while tuning")
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

	spec, err := tessellate.StencilByName(*kernel)
	if err != nil {
		fatal(err)
	}
	var dims []int
	for _, f := range strings.Split(*nFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("bad extent %q", f))
		}
		dims = append(dims, v)
	}

	res, err := autotune.Search(spec, dims, *threads, autotune.Budget{MaxTrials: *trials, MinSteps: *steps})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("tuning %s on %v (%d candidates):\n", spec.Name, dims, len(res.Trials))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tTimeTile (bt)\tBlock (Big)\tMUpd/s")
	for i, tr := range res.Trials {
		fmt.Fprintf(tw, "%d\t%d\t%v\t%.1f\n", i+1, tr.Options.TimeTile, tr.Options.Block, tr.MUpdates)
	}
	tw.Flush()
	fmt.Printf("\nbest: Options{TimeTile: %d, Block: %v}  (%.1f MUpd/s)\n",
		res.Best.TimeTile, res.Best.Block, res.BestRate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tessautotune:", err)
	os.Exit(1)
}
