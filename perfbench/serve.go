package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/server"
	"tessellate/internal/stencil"
)

// serve-sweep: a closed loop of sweepClients HTTP clients against an
// in-process server at its defaults. Each client waits for a reply
// before sending its next job, like a parameter-sweep script.

const (
	sweepClients = 2
	// repeatWindow bounds how far back an exact repeat reaches into
	// its client's own history: recent enough that the job completed
	// (the loop is closed) and is still in the server's result cache.
	repeatWindow = 64
	// oracleSamples is how many served jobs are recomputed with the
	// naive oracle after the window.
	oracleSamples = 24
	// serveSetupReps is how many times a run sets up; setup_s is the
	// median. A set-up takes about 15 ms, so it is repeated more often
	// than a compute workload's to keep one noisy instant out of it.
	serveSetupReps = 7
	// timeSlices is how many equal parts of the window the end-to-end
	// figures are taken over; each figure is the median part's, so a
	// burst of host noise in a few parts does not move it. A 30 s
	// window gives each part over 2000 jobs, enough for its own p99.
	timeSlices = 10
)

// jobMix is the seed-drawn share of each job class. "repeat" re-sends
// one of the client's recent distinct jobs exactly: a result-cache hit.
var jobMix = []struct {
	class  string
	weight float64
}{
	{"heat2d", 0.55},
	{"heat3d", 0.15},
	{"lshape", 0.10},
	{"star", 0.05},
	{"repeat", 0.15},
}

// shapeClasses are the job shapes, each warmed once during set-up.
var shapeClasses = []string{"heat2d", "heat3d", "lshape", "star"}

// The job shapes' extents, shared read-only by every request.
var (
	n2D   = []int{128, 128}
	n3D   = []int{32, 32, 32}
	nStar = []int{64, 64}
)

// shapeRequest is the job of the given class and input seed.
func shapeRequest(class string, seed int64, tenant string) server.JobRequest {
	switch class {
	case "heat3d":
		return server.JobRequest{Tenant: tenant, Kernel: "heat-3d", N: n3D, Steps: 64, Seed: seed}
	case "lshape":
		return server.JobRequest{Tenant: tenant, Kernel: "heat-2d", N: n2D, Steps: 128, Seed: seed, Mask: "lshape"}
	case "star":
		return server.JobRequest{Tenant: tenant, Kernel: "star", Order: 2, N: nStar, Steps: 32, Seed: seed}
	default:
		return server.JobRequest{Tenant: tenant, Kernel: "heat-2d", N: n2D, Steps: 128, Seed: seed}
	}
}

// sweepJob is one job a client sends.
type sweepJob struct {
	class  string // shape class; a repeat keeps the class it repeats
	repeat bool
	req    server.JobRequest
}

// key identifies a job's simulation (everything but the tenant).
func (j *sweepJob) key() string {
	r := &j.req
	return fmt.Sprintf("%s/%d/%v/%d/%d/%s", r.Kernel, r.Order, r.N, r.Steps, r.Seed, r.Mask)
}

// jobStream is one client's job sequence, a pure function of the seed
// and the client number.
type jobStream struct {
	rng    *rand.Rand
	tenant string
	recent []sweepJob
}

func newJobStream(seed int64, client int) *jobStream {
	return &jobStream{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		tenant: fmt.Sprintf("sweep-%d", client),
	}
}

func (s *jobStream) next() sweepJob {
	u := s.rng.Float64()
	class := jobMix[len(jobMix)-1].class
	for _, c := range jobMix {
		if u < c.weight {
			class = c.class
			break
		}
		u -= c.weight
	}
	if class == "repeat" {
		if len(s.recent) > 0 {
			j := s.recent[len(s.recent)-1-s.rng.Intn(len(s.recent))]
			j.repeat = true
			return j
		}
		class = "heat2d"
	}
	j := sweepJob{class: class, req: shapeRequest(class, s.rng.Int63(), s.tenant)}
	if len(s.recent) == repeatWindow {
		copy(s.recent, s.recent[1:])
		s.recent = s.recent[:repeatWindow-1]
	}
	s.recent = append(s.recent, j)
	return j
}

// warmJobs is one job of every shape, with seeds of their own stream.
func warmJobs(seed int64) []sweepJob {
	rng := rand.New(rand.NewSource(^seed))
	jobs := make([]sweepJob, len(shapeClasses))
	for i, c := range shapeClasses {
		jobs[i] = sweepJob{class: c, req: shapeRequest(c, rng.Int63(), "warmup")}
	}
	return jobs
}

// jobResult holds the server.JobResult fields the benchmark uses;
// decoding only these keeps a record small, so the benchmark's own
// memory barely grows with the number of jobs a run completes.
type jobResult struct {
	Checksum     float64 `json:"checksum"`
	Updates      int64   `json:"updates"`
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	Cached       bool    `json:"cached"`
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	job     sweepJob
	latency float64 // seconds from send to the last byte of the reply
	done    float64 // seconds from the window's start to the reply
	status  int
	err     error
	res     jobResult
}

func (rec *jobRecord) ok() bool { return rec.err == nil && rec.status == http.StatusOK }

// sweep is a running server and the HTTP client that drives it.
type sweep struct {
	srv    *server.Server
	url    string
	tr     *http.Transport
	client *http.Client
}

func startSweep() (*sweep, error) {
	srv := server.New(server.Config{})
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: sweepClients, DisableCompression: true}
	return &sweep{
		srv:    srv,
		url:    "http://" + srv.Addr() + "/v1/jobs",
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
	}, nil
}

func (s *sweep) close() error {
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// post sends one job and waits for the whole reply.
func (s *sweep) post(j sweepJob) jobRecord {
	rec := jobRecord{job: j}
	body, err := json.Marshal(&j.req)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.latency = time.Since(start).Seconds()
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(start).Seconds()
	rec.status = resp.StatusCode
	if err == nil && rec.status == http.StatusOK {
		err = json.Unmarshal(data, &rec.res)
	}
	rec.err = err
	return rec
}

// setup starts a server and sends one job of every shape through it:
// what a sweep pays before its first timed job.
func setupSweep(r *run, warm []sweepJob) (*sweep, []jobRecord, float64, error) {
	start := time.Now()
	s, err := startSweep()
	if err != nil {
		return nil, nil, 0, err
	}
	recs := make([]jobRecord, len(warm))
	for i, j := range warm {
		recs[i] = s.post(j)
	}
	sec := time.Since(start).Seconds()
	r.span("setup", 0, start)
	return s, recs, sec, nil
}

// window runs the closed loop until seconds have passed, then returns
// every record, in each client's order, and the wall time.
func (s *sweep) window(r *run, streams []*jobStream, seconds float64) ([]jobRecord, float64) {
	per := make([][]jobRecord, len(streams))
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				js := time.Now()
				rec := s.post(streams[c].next())
				rec.done = time.Since(start).Seconds()
				per[c] = append(per[c], rec)
				r.span("job", c+1, js)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all []jobRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// verifier checks served results: every reply must be a 200 with a
// result, and every repeat must return its first computation's
// checksum bitwise.
type verifier struct {
	first map[string]float64
}

func newVerifier() *verifier { return &verifier{first: make(map[string]float64)} }

func (v *verifier) check(r *run, recs []jobRecord) {
	for i := range recs {
		rec := &recs[i]
		if !rec.ok() {
			r.check(false, "job %s: status %d, error %v", rec.job.key(), rec.status, rec.err)
			continue
		}
		k := rec.job.key()
		want, seen := v.first[k]
		if !seen {
			v.first[k] = rec.res.Checksum
			want = rec.res.Checksum
		}
		r.check(rec.res.Checksum == want, "job %s (cached %v): checksum %v != first computation %v",
			k, rec.res.Cached, rec.res.Checksum, want)
	}
}

// oracleChecksum recomputes a served job with the naive oracle on pool
// and returns its checksum and the oracle's run time.
func oracleChecksum(req server.JobRequest, pool *par.Pool) (float64, float64, error) {
	bd := server.DefaultBoundary(req.Kernel)
	if req.Kernel == "star" {
		gen := stencil.NewStar(len(req.N), req.Order)
		g := grid.NewNDGrid(req.N, gen.Slopes)
		server.SeedGridND(g, req.Kernel, req.Seed, bd)
		start := time.Now()
		naive.RunND(g, gen, req.Steps, false)
		return server.ChecksumND(g), time.Since(start).Seconds(), nil
	}
	spec, err := stencil.ByName(req.Kernel)
	if err != nil {
		return 0, 0, err
	}
	var m *grid.Mask
	if req.Mask != "" {
		if m, err = grid.NamedMask(req.Mask, req.N); err != nil {
			return 0, 0, err
		}
	}
	switch spec.Dims {
	case 2:
		g := grid.NewGrid2D(req.N[0], req.N[1], spec.Slopes[0], spec.Slopes[1])
		server.SeedGrid2D(g, req.Kernel, req.Seed, bd)
		start := time.Now()
		if m != nil {
			err = naive.RunMasked2D(g, spec, req.Steps, pool, m)
		} else {
			naive.Run2D(g, spec, req.Steps, pool)
		}
		return server.Checksum2D(g), time.Since(start).Seconds(), err
	case 3:
		g := grid.NewGrid3D(req.N[0], req.N[1], req.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
		server.SeedGrid3D(g, req.Kernel, req.Seed, bd)
		start := time.Now()
		if m != nil {
			err = naive.RunMasked3D(g, spec, req.Steps, pool, m)
		} else {
			naive.Run3D(g, spec, req.Steps, pool)
		}
		return server.Checksum3D(g), time.Since(start).Seconds(), err
	}
	return 0, 0, fmt.Errorf("no oracle for %s", req.Kernel)
}

// oracleSample recomputes the warm-up jobs and a seed-chosen sample of
// the window's first computations with the naive oracle on one thread
// (the server's engines are one thread each), checking each served
// checksum. It returns the oracle's seconds per heat2d job.
func oracleSample(r *run, warm, recs []jobRecord, n int) ([]float64, error) {
	var cand []*jobRecord
	for i := range recs {
		if recs[i].ok() && !recs[i].job.repeat {
			cand = append(cand, &recs[i])
		}
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	sample := cand[:min(n, len(cand))]
	for i := range warm {
		if warm[i].ok() {
			sample = append(sample, &warm[i])
		}
	}
	pool := par.NewPool(1)
	defer pool.Close()
	var heat2d []float64
	for _, rec := range sample {
		start := time.Now()
		want, sec, err := oracleChecksum(rec.job.req, pool)
		if err != nil {
			return nil, err
		}
		r.span("naive", 0, start)
		r.check(rec.res.Checksum == want, "job %s: served checksum %v != naive %v", rec.job.key(), rec.res.Checksum, want)
		if rec.job.class == "heat2d" {
			heat2d = append(heat2d, sec)
		}
	}
	r.note("oracle_samples", len(sample))
	return heat2d, nil
}

// loopStats are the counts and latencies of a set of records.
type loopStats struct {
	ok, cached int
	latencies  []float64
	updates    float64 // updates of executed (not cached) jobs
}

func (s *loopStats) add(rec *jobRecord) {
	if !rec.ok() {
		return
	}
	s.ok++
	s.latencies = append(s.latencies, rec.latency)
	if rec.res.Cached {
		s.cached++
	} else {
		s.updates += float64(rec.res.Updates)
	}
}

func statsOf(recs []jobRecord) loopStats {
	var s loopStats
	for i := range recs {
		s.add(&recs[i])
	}
	return s
}

// sliceFigures splits a window of wall seconds into equal slices by
// reply time and returns the median slice's job rate, update rate
// (MLUP/s), median latency and tail latency (p99 when the slice has
// ten replies beyond it, see tailQ), and the fewest replies a slice
// had.
func sliceFigures(recs []jobRecord, wall float64) (jobsPerS, mlups, p50, p99 float64, fewest int) {
	part := wall / timeSlices
	var parts [timeSlices]loopStats
	for i := range recs {
		k := min(int(recs[i].done/part), timeSlices-1)
		parts[k].add(&recs[i])
	}
	var rate, ups, p50s, p99s []float64
	fewest = len(recs)
	for i := range parts {
		p := &parts[i]
		rate = append(rate, float64(p.ok)/part)
		ups = append(ups, p.updates/part/1e6)
		p50s = append(p50s, median(p.latencies))
		p99s = append(p99s, quantile(p.latencies, tailQ(len(p.latencies))))
		fewest = min(fewest, p.ok)
	}
	return median(rate), median(ups), median(p50s), median(p99s), fewest
}

// serverLayers sets the server.* metrics from a window's records and
// the server's schedule cache.
func serverLayers(r *run, s *sweep, recs []jobRecord) {
	var queue, runS, over []float64
	rejected := 0
	for i := range recs {
		rec := &recs[i]
		if rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable {
			rejected++
		}
		if !rec.ok() || rec.res.Cached {
			continue
		}
		queue = append(queue, rec.res.QueueSeconds)
		runS = append(runS, rec.res.RunSeconds)
		over = append(over, rec.latency-rec.res.QueueSeconds-rec.res.RunSeconds)
	}
	st := statsOf(recs)
	hits, misses := s.srv.ScheduleCache().Stats()
	r.set("server.queue_s_p50", median(queue))
	r.set("server.run_s_p50", median(runS))
	r.set("server.overhead_s_p50", median(over))
	r.set("server.cache_hit_ratio", float64(st.cached)/float64(max(st.ok, 1)))
	r.set("server.schedule_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	r.set("server.reject_ratio", float64(rejected)/float64(max(len(recs), 1)))
	r.note("server.executed_samples", len(runS))
}

func newStreams(seed int64) []*jobStream {
	streams := make([]*jobStream, sweepClients)
	for c := range streams {
		streams[c] = newJobStream(seed, c)
	}
	return streams
}

func runServeSweep(r *run) error {
	warm := warmJobs(r.seed)
	var s *sweep
	var warmRecs []jobRecord
	setups := make([]float64, serveSetupReps)
	for i := range setups {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		var err error
		if s, warmRecs, setups[i], err = setupSweep(r, warm); err != nil {
			return err
		}
	}
	defer s.close()
	r.set("setup_s", median(setups))
	r.note("setup_s.samples", len(setups))
	v := newVerifier()
	v.check(r, warmRecs)
	streams := newStreams(r.seed)

	if !r.trace {
		recs, wall := s.window(r, streams, r.seconds)
		v.check(r, recs)
		st := statsOf(recs)
		jobsPerS, mlups, p50, p99, fewest := sliceFigures(recs, wall)
		r.set("jobs_per_s", jobsPerS)
		r.set("mlups", mlups)
		r.set("latency_p50_s", p50)
		r.set("latency_p99_s", p99)
		r.note("slices", timeSlices)
		r.note("slice_jobs.fewest", fewest)
		r.note("latency_p99_s.percentile", 100*tailQ(fewest))
		r.note("latency_s.iqr_frac", iqrFrac(st.latencies))
		r.note("jobs", len(recs))
		r.note("cached", st.cached)
		_, err := oracleSample(r, warmRecs, recs, oracleSamples)
		return err
	}

	// Traced run: the server keeps its telemetry on throughout (New
	// enables it); only the benchmark's own spans differ between the
	// untraced and the traced half.
	tracer := r.tracer
	r.tracer = nil
	plain, _ := s.window(r, streams, r.seconds/2)
	r.tracer = tracer
	traced, _ := s.window(r, streams, r.seconds/2)
	v.check(r, plain)
	v.check(r, traced)
	serverLayers(r, s, plain)
	p50 := median(statsOf(plain).latencies)
	r.set("trace.overhead_frac", (median(statsOf(traced).latencies)-p50)/p50)
	r.note("jobs", map[string]int{"untraced": len(plain), "traced": len(traced)})

	naiveHeat2d, err := oracleSample(r, warmRecs, plain, oracleSamples)
	if err != nil {
		return err
	}
	return serveComputeLayers(r, plain, naiveHeat2d)
}

// serveComputeLayers sets the compute-side layer metrics of serve-sweep
// for its dominant shape, the heat2d job: 128² heat-2d over 128 steps
// on a one-thread engine with the server's default tiling.
func serveComputeLayers(r *run, recs []jobRecord, naiveHeat2d []float64) error {
	req := shapeRequest("heat2d", 0, "")
	spec := stencil.Heat2D
	cfg := core.DefaultConfig(req.N, spec.Slopes)
	sched, err := core.NewSchedule(&cfg, req.Steps)
	if err != nil {
		return err
	}
	var runs []float64
	for i := range recs {
		if rec := &recs[i]; rec.ok() && !rec.res.Cached && rec.job.class == "heat2d" {
			runs = append(runs, rec.res.RunSeconds)
		}
	}
	exec := median(runs)
	r.set("core.exec_s", exec)
	r.note("core.exec_s.samples", len(runs))
	naiveS := median(naiveHeat2d)
	updates := float64(req.N[0]*req.N[1]) * float64(req.Steps)
	r.set("naive.mlups", updates/naiveS/1e6)
	r.set("core.speedup_vs_naive", naiveS/exec)
	r.note("naive.samples", len(naiveHeat2d))

	// The lshape job runs the same 128² schedule under its mask.
	m, err := grid.NamedMask("lshape", req.N)
	if err != nil {
		return err
	}
	r.set("grid.mask_mixed_frac", mixedFrac(sched, m))

	pool := par.NewPool(2)
	defer pool.Close()
	kernelS, err := layerCommon(r, pool, 1, spec, spec.Flops, sched, exec)
	if err != nil {
		return err
	}
	r.set("core.nonkernel_frac", 1-updates*kernelS/exec)

	// Scaling: the same job replayed on pools of one and two workers.
	g := grid.NewGrid2D(req.N[0], req.N[1], 1, 1)
	timeOn := func(p *par.Pool) (float64, error) {
		times := make([]float64, 15)
		for i := range times {
			server.SeedGrid2D(g, req.Kernel, r.seed+int64(i), 1)
			start := time.Now()
			if err := core.RunScheduled2D(g, spec, sched, p); err != nil {
				return 0, err
			}
			times[i] = time.Since(start).Seconds()
		}
		return median(times), nil
	}
	one := par.NewPool(1)
	defer one.Close()
	t1, err := timeOn(one)
	if err != nil {
		return err
	}
	t2, err := timeOn(pool)
	if err != nil {
		return err
	}
	r.set("par.scaling_eff", t1/(2*t2))
	return nil
}

// serveProbe fills the server.* metrics on a compute workload's traced
// run from a short closed-loop sweep of its own.
func serveProbe(r *run, seconds float64) error {
	s, warmRecs, _, err := setupSweep(r, warmJobs(r.seed))
	if err != nil {
		return err
	}
	defer s.close()
	v := newVerifier()
	v.check(r, warmRecs)
	recs, _ := s.window(r, newStreams(r.seed), seconds)
	v.check(r, recs)
	serverLayers(r, s, recs)
	r.note("server.probe_seconds", seconds)
	return nil
}
