package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// testServer starts a small server on a kernel-chosen port and tears
// it down with the test.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		_ = s.Close()
	})
	return s
}

func postJob(t *testing.T, s *Server, req *JobRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// An end-to-end job over HTTP must reproduce the naive reference
// bitwise: same seeding, same checksum.
func TestServeChecksumMatchesNaive(t *testing.T) {
	s := testServer(t, Config{Engines: 2, ThreadsPerEngine: 2})

	const n, steps, seed = 96, 13, 7
	resp, body := postJob(t, s, &JobRequest{
		Tenant: "team-a", Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result %q: %v", body, err)
	}

	ref := grid.NewGrid2D(n, n, 1, 1)
	SeedGrid2D(ref, "heat-2d", seed, DefaultBoundary("heat-2d"))
	pool := par.NewPool(1)
	defer pool.Close()
	naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), steps, pool, nil)
	want := Checksum2D(ref)

	if res.Checksum != want {
		t.Fatalf("served checksum %v != naive reference %v", res.Checksum, want)
	}
	if res.Updates != int64(n)*int64(n)*steps {
		t.Fatalf("updates %d, want %d", res.Updates, int64(n)*int64(n)*steps)
	}
	if res.Tenant != "team-a" || res.JobID == "" {
		t.Fatalf("result identity wrong: %+v", res)
	}

	// Same job again: identical checksum (deterministic seeding, warm
	// arena/schedule-cache path).
	resp2, body2 := postJob(t, s, &JobRequest{
		Tenant: "team-a", Kernel: "heat-2d", N: []int{n, n}, Steps: steps, Seed: seed,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var res2 JobResult
	if err := json.Unmarshal(body2, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Checksum != want {
		t.Fatalf("second run checksum %v != %v (non-deterministic serving)", res2.Checksum, want)
	}
}

// All seven built-in kernels and a generic star must serve without
// error and produce finite checksums.
func TestServeAllKernels(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 2})
	cases := []JobRequest{
		{Kernel: "heat-1d", N: []int{256}, Steps: 9},
		{Kernel: "1d5p", N: []int{256}, Steps: 9},
		{Kernel: "heat-2d", N: []int{48, 40}, Steps: 9},
		{Kernel: "2d9p", N: []int{48, 40}, Steps: 9},
		{Kernel: "game-of-life", N: []int{48, 40}, Steps: 9},
		{Kernel: "heat-3d", N: []int{24, 20, 16}, Steps: 5},
		{Kernel: "3d27p", N: []int{24, 20, 16}, Steps: 5},
		{Kernel: "star", Order: 2, N: []int{40, 40}, Steps: 6},
		{Kernel: "box", N: []int{20, 16, 12}, Steps: 4},
	}
	for _, req := range cases {
		req := req
		resp, body := postJob(t, s, &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", req.Kernel, req.N, resp.StatusCode, body)
		}
		var res JobResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: %v", req.Kernel, err)
		}
	}
}

// Generic star order-1 must agree with the built-in heat-2d spec when
// served on the same grid (they share slopes but not coefficients, so
// compare star against the naive ND reference instead).
func TestServeGenericMatchesNaiveND(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 2})
	const steps, seed = 7, 3
	n := []int{36, 28}
	resp, body := postJob(t, s, &JobRequest{Kernel: "star", N: n, Steps: steps, Seed: seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}

	gs := stencil.NewStar(2, 1)
	ref := grid.NewNDGrid(n, gs.Slopes)
	SeedGridND(ref, "star", seed, DefaultBoundary("star"))
	naive.RunND(ref, gs, steps, false)
	if want := ChecksumND(ref); res.Checksum != want {
		t.Fatalf("served generic checksum %v != naive ND %v", res.Checksum, want)
	}
}

// Invalid requests must be rejected with 400 and a useful message,
// and must never reach the queue.
func TestServeRejectsInvalid(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1, MaxPoints: 1 << 16, MaxSteps: 100})
	cases := []struct {
		req  JobRequest
		frag string
	}{
		{JobRequest{Kernel: "heat-2d", N: []int{4, 4}, Steps: 0}, "steps"},
		{JobRequest{Kernel: "heat-2d", N: []int{4, 4}, Steps: 1000}, "limit"},
		{JobRequest{Kernel: "heat-2d", N: []int{1 << 10, 1 << 10}, Steps: 1}, "points"},
		// int64-overflow probe: the prefix product 2^16 * 2^48 wraps to
		// 0, so a multiply-then-check loop would admit it.
		{JobRequest{Kernel: "heat-2d", N: []int{1 << 16, 1 << 48}, Steps: 1}, "points"},
		// Passes field-by-field option validation but yields an invalid
		// config (block 2 < 2*BT*slope = 8): must 400 at admission, not
		// 500 from the engine.
		{JobRequest{Kernel: "heat-2d", N: []int{32, 32}, Steps: 1,
			Options: JobOptions{TimeTile: 4, Block: []int{2, 2}}}, "too small"},
		{JobRequest{Kernel: "heat-2d", N: []int{64}, Steps: 1}, "2d"},
		{JobRequest{Kernel: "no-such-kernel", N: []int{64}, Steps: 1}, "unknown"},
		{JobRequest{Kernel: "star", Order: 9, N: []int{64}, Steps: 1}, "order"},
		{JobRequest{Kernel: "heat-2d", N: []int{32, 32}, Steps: 1,
			Options: JobOptions{Block: []int{8}}}, "block"},
	}
	for _, c := range cases {
		resp, body := postJob(t, s, &c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d (want 400): %s", c.req, resp.StatusCode, body)
		}
		if !strings.Contains(strings.ToLower(string(body)), c.frag) {
			t.Fatalf("%+v: error %q does not mention %q", c.req, body, c.frag)
		}
	}
	var st statsBody
	resp, err := http.Get("http://" + s.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Rejected != uint64(len(cases)) || st.Accepted != 0 {
		t.Fatalf("stats accepted=%d rejected=%d, want 0/%d", st.Accepted, st.Rejected, len(cases))
	}
}

// A full queue must shed load with 429 and a positive Retry-After.
func TestServeQueueFullReturns429(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1, QueueDepth: 1})

	// Saturate the lone engine and the 1-deep queue with slow jobs
	// (~100M updates each on one thread), then hammer until a 429
	// surfaces (the first jobs may be picked up before the queue
	// fills).
	slow := JobRequest{Kernel: "heat-2d", N: []int{256, 256}, Steps: 1500}
	done := make(chan struct{}, 8)
	got429 := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			body, _ := json.Marshal(&slow)
			resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				select {
				case got429 <- resp.Header.Get("Retry-After"):
				default:
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	select {
	case ra := <-got429:
		if ra == "" {
			t.Fatal("429 without a Retry-After header")
		}
		var sec int
		if _, err := fmt.Sscanf(ra, "%d", &sec); err != nil || sec < 1 {
			t.Fatalf("Retry-After %q is not a positive integer", ra)
		}
	default:
		t.Fatal("8 concurrent jobs against queue_depth=1 never produced a 429")
	}
}

// Stream mode must emit queued -> result -> values NDJSON events, and
// the streamed rows must sum to the checksum.
func TestServeStreamValues(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})
	req := JobRequest{Kernel: "heat-2d", N: []int{24, 16}, Steps: 5, Seed: 11, Values: true}
	body, _ := json.Marshal(&req)
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var (
		events   []string
		checksum float64
		rowSum   float64
		rows     int
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event  string    `json:"event"`
			Result JobResult `json:"result"`
			Row    []float64 `json:"row"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		events = append(events, ev.Event)
		switch ev.Event {
		case "result":
			checksum = ev.Result.Checksum
		case "values":
			rows++
			for _, v := range ev.Row {
				rowSum += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 || events[0] != "queued" || events[1] != "result" {
		t.Fatalf("event order %v", events)
	}
	if rows != 24 {
		t.Fatalf("streamed %d rows, want 24", rows)
	}
	// Interior sums in different orders: allow float tolerance here
	// (the checksum itself is the fixed-order digest).
	if diff := rowSum - checksum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("streamed values sum %v != checksum %v", rowSum, checksum)
	}
}

// A job that panics inside the engine must fail alone: the panic is
// converted into that job's error and the engine keeps serving other
// tenants instead of taking the process down.
func TestEnginePanicFailsJobNotServer(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})

	spec, err := stencil.ByName("heat-2d")
	if err != nil {
		t.Fatal(err)
	}
	// Bypass admission with a rank-mismatched job (2D spec, 1D extents)
	// and no schedule: executing it panics inside the engine.
	j := &job{
		req:      JobRequest{Kernel: "heat-2d", N: []int{32}, Steps: 2},
		id:       s.nextID.Add(1),
		tenant:   "default",
		spec:     spec,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	if err := s.enqueue(j); err != nil {
		t.Fatal(err)
	}
	<-j.done
	if j.err == nil || !strings.Contains(j.err.Error(), "panic") {
		t.Fatalf("panicking job error = %v, want a recovered panic", j.err)
	}

	// The engine survived: a well-formed job still completes over HTTP.
	resp, body := postJob(t, s, &JobRequest{Kernel: "heat-2d", N: []int{32, 32}, Steps: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after engine panic: %s", resp.StatusCode, body)
	}
}

// values:true must stream rows for generic star/box kernels too (they
// run the ND executor, so the grid arriving at the handler is an
// NDGrid, not a Grid1D/Grid2D).
func TestServeStreamValuesGeneric(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})
	for _, tc := range []struct {
		n        []int
		wantRows int
	}{
		{[]int{24, 16}, 24},
		{[]int{48}, 1},
	} {
		req := JobRequest{Kernel: "star", N: tc.n, Steps: 5, Seed: 11, Values: true}
		body, _ := json.Marshal(&req)
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var (
			checksum float64
			rowSum   float64
			rows     int
		)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev struct {
				Event  string    `json:"event"`
				Result JobResult `json:"result"`
				Row    []float64 `json:"row"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad event %q: %v", sc.Text(), err)
			}
			switch ev.Event {
			case "result":
				checksum = ev.Result.Checksum
			case "values":
				rows++
				for _, v := range ev.Row {
					rowSum += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != tc.wantRows {
			t.Fatalf("n=%v: streamed %d value rows, want %d", tc.n, rows, tc.wantRows)
		}
		if diff := rowSum - checksum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%v: streamed values sum %v != checksum %v", tc.n, rowSum, checksum)
		}
	}
}

// Tenant labels must be sanitized before reaching the exposition.
func TestSanitizeTenant(t *testing.T) {
	cases := map[string]string{
		"":                       "default",
		"team-a":                 "team-a",
		"a b\"c\nd":              "a_b_c_d",
		"ok_1.2-x":               "ok_1.2-x",
		strings.Repeat("x", 100): strings.Repeat("x", 48),
	}
	for in, want := range cases {
		if got := sanitizeTenant(in); got != want {
			t.Fatalf("sanitizeTenant(%q) = %q, want %q", in, got, want)
		}
	}
}

// The metrics endpoint must expose the job counters with tenant labels.
func TestServeMetricsExposition(t *testing.T) {
	s := testServer(t, Config{Engines: 1, ThreadsPerEngine: 1})
	resp, body := postJob(t, s, &JobRequest{
		Tenant: "exposed", Kernel: "heat-1d", N: []int{128}, Steps: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, frag := range []string{
		`tess_jobs_accepted_total{tenant="exposed"}`,
		`tess_jobs_completed_total{tenant="exposed",status="ok"}`,
		"tess_jobs_queue_depth",
		"tess_jobs_duration_seconds_bucket",
	} {
		if !strings.Contains(text, frag) {
			t.Fatalf("exposition missing %q", frag)
		}
	}
}
