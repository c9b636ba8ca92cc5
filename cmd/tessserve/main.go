// Command tessserve runs the stencil-as-a-service engine server: a
// long-lived multi-tenant HTTP/JSON front end over a pool of pre-built
// tessellation engines partitioned across the machine (see DESIGN.md
// §Serving architecture).
//
// Usage:
//
//	tessserve -addr :8080 -engines 4 -threads 4 -pin -sticky
//	tessserve -smoke                 # self-contained end-to-end check
//	tessserve -bench -json out.json  # load-generate against itself
//
// Endpoints: POST /v1/jobs, GET /v1/stats, GET /healthz, plus the
// shared telemetry surface (/metrics, /trace, /debug/pprof/).
// SIGTERM/SIGINT starts a graceful drain: queued jobs finish, new jobs
// get 503, then the process exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"tessellate/internal/bench"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/server"
	"tessellate/internal/stencil"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address ('' = kernel-chosen port)")
		engines     = flag.Int("engines", 0, "execution lanes (0 = min(4, NumCPU))")
		threads     = flag.Int("threads", 0, "pool width per engine (0 = NumCPU/engines)")
		queue       = flag.Int("queue", 0, "default per-tenant queue depth (0 = 4*engines)")
		tenantQueue = flag.Int("tenant-queue", 0, "per-tenant admission queue depth (0 = -queue)")
		weightsFlag = flag.String("tenant-weights", "", "fair-share weights, e.g. 'gold=3,bronze=1' (absent tenants weigh 1)")
		maxTenants  = flag.Int("max-tenants", 0, "distinct tenant labels tracked; beyond this, tenants collapse into \"other\" (0 = 1024)")
		resultCache = flag.Int("result-cache", 0, "deterministic result cache entries (0 = 4096, -1 = disabled)")
		pin         = flag.Bool("pin", false, "pin engine workers to disjoint CPU slices")
		sticky      = flag.Bool("sticky", false, "sticky block->worker scheduling per engine")
		maxPts      = flag.Int("max-points", 0, "per-job grid point limit (0 = 1<<24)")
		maxSteps    = flag.Int("max-steps", 0, "per-job step limit (0 = 1<<20)")
		arenaMax    = flag.Int64("arena-max-bytes", 0, "per-engine arena pooled-memory limit (0 = 1 GiB)")
		kernelPath  = flag.String("kernel-path", "", "kernel dispatch path: row, block or simd ('' = default simd, degrading to block without CPU support)")
		drain       = flag.Duration("drain-timeout", 60*time.Second, "graceful drain limit on SIGTERM")

		smoke = flag.Bool("smoke", false, "run the self-contained smoke check and exit")

		doBench = flag.Int("bench", 0, "run this many load-generation scenarios against an in-process server and exit (0 = serve)")
		jsonOut = flag.String("json", "", "write the -bench report here (default stdout)")
		dur     = flag.Duration("duration", 2*time.Second, "-bench: window per scenario")
		kernel  = flag.String("kernel", "heat-2d", "-bench: job kernel")
		nFlag   = flag.String("n", "128,128", "-bench: job extents, comma separated")
		steps   = flag.Int("steps", 16, "-bench: job steps")
		conc    = flag.Int("concurrency", 4, "-bench: closed-loop clients")
		rate    = flag.Float64("rate", 100, "-bench: open-loop arrival rate, jobs/s")
	)
	flag.Parse()

	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		fatal(err)
	}
	cfg := server.Config{
		Addr:             *addr,
		Engines:          *engines,
		ThreadsPerEngine: *threads,
		QueueDepth:       *queue,
		TenantQueueDepth: *tenantQueue,
		TenantWeights:    weights,
		MaxTenants:       *maxTenants,
		ResultCacheSize:  *resultCache,
		Pin:              *pin,
		Sticky:           *sticky,
		MaxPoints:        *maxPts,
		MaxSteps:         *maxSteps,
		ArenaMaxBytes:    *arenaMax,
		KernelPath:       *kernelPath,
	}
	if *kernelPath != "" {
		// Validate here for a clean CLI error; server.New panics on
		// unknown names.
		if _, ok := stencil.ParsePath(*kernelPath); !ok {
			fatal(fmt.Errorf("unknown -kernel-path %q (valid: row, block, simd)", *kernelPath))
		}
	}

	switch {
	case *smoke:
		if err := runSmoke(cfg); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: ok")
	case *doBench > 0:
		if err := runBench(cfg, *doBench, *jsonOut, *dur, *kernel, *nFlag, *steps, *conc, *rate); err != nil {
			fatal(err)
		}
	default:
		if err := serve(cfg, *drain); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tessserve:", err)
	os.Exit(1)
}

// parseWeights parses the -tenant-weights flag ("gold=3,bronze=1").
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	w := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenant-weights entry %q: want tenant=weight", part)
		}
		var v int
		if _, err := fmt.Sscanf(val, "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad -tenant-weights weight %q: want a positive integer", val)
		}
		w[name] = v
	}
	return w, nil
}

// serve runs until SIGTERM/SIGINT, then drains gracefully.
func serve(cfg server.Config, drainTimeout time.Duration) error {
	s := server.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tessserve: serving on http://%s (%d engines x %d threads)\n",
		s.Addr(), s.Engines(), cfg.ThreadsPerEngine)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "tessserve: %v, draining (limit %v)\n", got, drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		_ = s.Close()
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "tessserve: drained cleanly")
	return s.Close()
}

// runSmoke is the CI end-to-end check: start a server on a
// kernel-chosen port, submit a heat-2d job over real HTTP, verify the
// checksum bitwise against the naive reference, re-submit it and
// verify the repeat is served bitwise-equal from the result cache,
// drive a weighted two-tenant mix through the fair queue, confirm the
// job and cache counters reached /metrics, and shut down cleanly.
func runSmoke(cfg server.Config) error {
	cfg.Addr = "127.0.0.1:0"
	if cfg.Engines == 0 {
		cfg.Engines = 2
	}
	if cfg.ThreadsPerEngine == 0 {
		cfg.ThreadsPerEngine = 2
	}
	if cfg.TenantWeights == nil {
		cfg.TenantWeights = map[string]int{"gold": 3, "bronze": 1}
	}
	s := server.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}

	const (
		n     = 128
		steps = 17
		seed  = 42
	)
	body, _ := json.Marshal(server.JobRequest{
		Tenant: "smoke", Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
	})
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var res server.JobResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job status %d", resp.StatusCode)
	}

	// Reference: same seeding, naive executor, single thread.
	ref := grid.NewGrid2D(n, n, 1, 1)
	server.SeedGrid2D(ref, "heat-2d", seed, server.DefaultBoundary("heat-2d"))
	pool := par.NewPool(1)
	naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, pool, nil)
	pool.Close()
	want := server.Checksum2D(ref)
	if res.Checksum != want {
		return fmt.Errorf("checksum mismatch: served %v, naive reference %v", res.Checksum, want)
	}
	fmt.Printf("smoke: heat-2d %dx%d x%d steps, checksum %v matches naive reference (%.1f MLUP/s on engine %d)\n",
		n, n, steps, res.Checksum, res.MLUPs, res.Engine)

	// Repeat the identical job: the deterministic result cache must
	// answer it bitwise-equal without executing anything.
	resp, err = http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("repeat submit: %w", err)
	}
	var res2 server.JobResult
	err = json.NewDecoder(resp.Body).Decode(&res2)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode repeat result: %w", err)
	}
	if !res2.Cached || res2.Engine != -1 {
		return fmt.Errorf("repeat job not served from the result cache: %+v", res2)
	}
	if res2.Checksum != res.Checksum {
		return fmt.Errorf("cached checksum %v != executed checksum %v", res2.Checksum, res.Checksum)
	}
	fmt.Println("smoke: repeat job served bitwise-equal from the result cache")

	// Weighted two-tenant mix: gold (weight 3) and bronze (weight 1)
	// jobs with distinct seeds flow through the fair queue together and
	// all complete.
	var wg sync.WaitGroup
	mixErrs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		// Distinct seeds per tenant AND per job: the result-cache key
		// ignores the tenant, and the mix must exercise the queue, not
		// the cache.
		for ti, tenant := range []string{"gold", "bronze"} {
			wg.Add(1)
			go func(tenant string, seed int64) {
				defer wg.Done()
				b, _ := json.Marshal(server.JobRequest{
					Tenant: tenant, Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
				})
				r, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(b))
				if err != nil {
					mixErrs <- fmt.Errorf("%s job: %w", tenant, err)
					return
				}
				defer r.Body.Close()
				if r.StatusCode != http.StatusOK {
					mixErrs <- fmt.Errorf("%s job status %d", tenant, r.StatusCode)
				}
			}(tenant, int64(100*(ti+1)+i))
		}
	}
	wg.Wait()
	close(mixErrs)
	for err := range mixErrs {
		return err
	}
	fmt.Println("smoke: weighted two-tenant mix (gold=3, bronze=1) all completed")

	mresp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return fmt.Errorf("scrape read: %w", err)
	}
	for _, frag := range []string{
		`tess_jobs_accepted_total{tenant="smoke"} 1`,
		`tess_jobs_completed_total{tenant="smoke",status="ok"} 1`,
		`tess_jobs_accepted_total{tenant="gold"} 4`,
		`tess_jobs_accepted_total{tenant="bronze"} 4`,
		`tess_result_cache_lookups_total{result="hit"} 1`,
	} {
		if !strings.Contains(buf.String(), frag) {
			return fmt.Errorf("/metrics missing %q", frag)
		}
	}
	fmt.Println("smoke: /metrics exposes the job and result-cache counters")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return s.Close()
}

// runBench starts an in-process server and cycles four scenario kinds
// against it — closed loop (engine throughput, varied seeds), open
// loop (latency at a target rate), cache (fixed seed: repeat-job
// serving from the result cache) and fairness (victim vs flooding
// tenant) — writing a JSON report.
func runBench(cfg server.Config, scenarios int, out string, dur time.Duration,
	kernel, nFlag string, steps, conc int, rate float64) error {
	var n []int
	for _, f := range strings.Split(nFlag, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return fmt.Errorf("bad -n %q: %w", nFlag, err)
		}
		n = append(n, v)
	}
	cfg.Addr = "127.0.0.1:0"
	s := server.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	defer s.Close()

	type report struct {
		Host     string                 `json:"host"`
		Engines  int                    `json:"engines"`
		Threads  int                    `json:"threads_per_engine"`
		Runs     []bench.LoadReport     `json:"runs"`
		Fairness []bench.FairnessReport `json:"fairness,omitempty"`
	}
	rep := report{Engines: s.Engines(), Threads: cfg.ThreadsPerEngine}
	rep.Host, _ = os.Hostname()

	for i := 0; i < scenarios; i++ {
		if i%4 == 3 {
			fr, err := bench.RunFairness(bench.FairnessConfig{
				URL: "http://" + s.Addr(), Kernel: kernel, N: n, Steps: steps,
				Duration: dur, FloodConcurrency: 4 * conc, Seed: int64(1_000_000 * (i + 1)),
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench[%d] fairness: victim p99 %.1fms solo -> %.1fms under %dx flood (ratio %.2f)\n",
				i, fr.SoloP99*1e3, fr.VictimP99*1e3, fr.FloodConcurrency, fr.P99Ratio)
			rep.Fairness = append(rep.Fairness, *fr)
			continue
		}
		lc := bench.LoadConfig{
			URL: "http://" + s.Addr(), Kernel: kernel, N: n, Steps: steps,
			// Seed ranges are a scenario apart so a varied-seed scenario
			// never replays a prior scenario's simulations from the cache.
			Tenant: "bench", Duration: dur, Seed: int64(1_000_000 * (i + 1)),
		}
		mode := "cache"
		switch i % 4 {
		case 0:
			lc.Concurrency = conc
			lc.VarySeeds = true
			mode = "closed"
		case 1:
			lc.OpenLoop = true
			lc.RatePerSec = rate
			lc.VarySeeds = true
			mode = "open"
		case 2:
			// Fixed seed, closed loop: after the first execution every
			// job is a repeat, so this measures cache-hit jobs/s.
			lc.Concurrency = conc
		}
		r, err := bench.RunLoad(lc)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench[%d] %s: %d jobs (%d cached), %.1f jobs/s, %.1f MLUP/s, p50 %.1fms p99 %.1fms\n",
			i, mode, r.Completed, r.Cached, r.JobsPerSec, r.MLUPs, r.LatencyP50*1e3, r.LatencyP99*1e3)
		rep.Runs = append(rep.Runs, *r)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return err
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
