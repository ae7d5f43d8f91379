package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"columbas/internal/cases"
)

// tinySrc solves in tens of milliseconds — the workhorse netlist for
// functional tests.
const tinySrc = `design tiny
unit m1 mixer
unit c1 chamber
connect in:a m1
connect m1 c1
connect c1 out:w
`

// tinyN returns tinySrc with a distinct design name, giving each call a
// distinct cache key.
func tinyN(i int) string {
	return strings.Replace(tinySrc, "design tiny", fmt.Sprintf("design tiny%d", i), 1)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSynthesizeBasicAndNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 2})

	// Explicit format param.
	resp, body := post(t, ts.URL+"/v1/synthesize?format=svg", tinySrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !bytes.Contains(body, []byte("<svg")) {
		t.Fatal("response is not an SVG")
	}
	if c := resp.Header.Get("X-Columbas-Cache"); c != "miss" {
		t.Fatalf("X-Columbas-Cache = %q, want miss", c)
	}

	// Accept-header negotiation.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/synthesize", strings.NewReader(tinySrc))
	req.Header.Set("Accept", "image/vnd.dxf")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dxf status %d: %s", resp2.StatusCode, b2)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "image/vnd.dxf" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// No format, no Accept: JSON default.
	resp3, body3 := post(t, ts.URL+"/v1/synthesize", tinySrc)
	if ct := resp3.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(body3, &doc); err != nil {
		t.Fatalf("default response is not JSON: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	for _, tc := range []struct {
		name, url, body string
		accept          string
		want            int
	}{
		{"parse error", "/v1/synthesize", "not a netlist", "", http.StatusBadRequest},
		{"unknown format", "/v1/synthesize?format=pdf", tinySrc, "", http.StatusBadRequest},
		{"bad muxes", "/v1/synthesize?muxes=3", tinySrc, "", http.StatusBadRequest},
		{"bad timeout", "/v1/synthesize?timeout=banana", tinySrc, "", http.StatusBadRequest},
		{"bad effort", "/v1/synthesize?effort=extreme", tinySrc, "", http.StatusBadRequest},
		{"unacceptable accept", "/v1/synthesize", tinySrc, "text/html", http.StatusNotAcceptable},
		{"semantic error", "/v1/synthesize", "design d\nunit m1 mixer\n", "", http.StatusUnprocessableEntity},
	} {
		req, _ := http.NewRequest("POST", ts.URL+tc.url, strings.NewReader(tc.body))
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Method not allowed on the mux pattern.
	resp, err := http.Get(ts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET synthesize: status %d, want 405", resp.StatusCode)
	}
}

// TestCacheHitByteIdentical re-submits an identical netlist and checks
// the reply comes from the cache, byte for byte the same, for both SVG
// and JSON, and that the counters move.
func TestCacheHitByteIdentical(t *testing.T) {
	var traces bytes.Buffer
	s, ts := newTestServer(t, Config{Jobs: 2, TraceSink: &traces})
	for _, format := range []string{"svg", "json"} {
		url := ts.URL + "/v1/synthesize?format=" + format
		resp1, body1 := post(t, url, tinySrc)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: status %d: %s", format, resp1.StatusCode, body1)
		}
		resp2, body2 := post(t, url, tinySrc)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s warm: status %d: %s", format, resp2.StatusCode, body2)
		}
		if resp2.Header.Get("X-Columbas-Cache") != "hit" {
			t.Fatalf("%s warm: X-Columbas-Cache = %q, want hit", format, resp2.Header.Get("X-Columbas-Cache"))
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: cache hit bytes differ from cold solve", format)
		}
		if k1, k2 := resp1.Header.Get("X-Columbas-Key"), resp2.Header.Get("X-Columbas-Key"); k1 == "" || k1 != k2 {
			t.Fatalf("%s: content-address keys differ: %q vs %q", format, k1, k2)
		}
	}
	// Same source + same options = same key, so the second format pair
	// hits too: 1 miss, 3 hits.
	cs := s.cache.stats()
	if cs.Misses != 1 || cs.Hits != 3 {
		t.Fatalf("cache counters = %+v, want 1 miss / 3 hits", cs)
	}
	st := getStats(t, ts.URL)
	if st.Cache.Hits != 3 || st.Requests.Completed != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// The solver block reflects the single cold solve; the three cache
	// hits ran no solver and contributed nothing, so one synthesis worth
	// of LP solves is all there is, and the kernel identities hold.
	if st.Solver.LPSolves == 0 {
		t.Fatalf("solver stats empty after a completed synthesis: %+v", st.Solver)
	}
	if st.Solver.EtaUpdates > st.Solver.SimplexPivots {
		t.Fatalf("eta_updates %d > simplex_pivots %d", st.Solver.EtaUpdates, st.Solver.SimplexPivots)
	}
	if st.Solver.WorkspaceReuses > st.Solver.WarmStarts {
		t.Fatalf("workspace_reuses %d > warm_starts %d", st.Solver.WorkspaceReuses, st.Solver.WarmStarts)
	}
	after := getStats(t, ts.URL)
	if after.Solver != st.Solver {
		t.Fatalf("solver stats changed without a solve: %+v vs %+v", after.Solver, st.Solver)
	}
	// Hit/miss surfaced through the obs trace sink: one line per request.
	lines := strings.Count(traces.String(), "\n")
	if lines != 4 {
		t.Fatalf("trace sink has %d lines, want 4", lines)
	}
	if !strings.Contains(traces.String(), `"result":"hit"`) ||
		!strings.Contains(traces.String(), `"result":"miss"`) {
		t.Fatalf("trace sink lacks cache result labels:\n%s", traces.String())
	}
}

// TestDifferentOptionsDifferentKey: the content address covers the
// option fingerprint, not just the netlist.
func TestDifferentOptionsDifferentKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	post(t, ts.URL+"/v1/synthesize", tinySrc)
	resp, _ := post(t, ts.URL+"/v1/synthesize?effort=seed", tinySrc)
	if c := resp.Header.Get("X-Columbas-Cache"); c != "miss" {
		t.Fatalf("different options served from cache (%q)", c)
	}
	if cs := s.cache.stats(); cs.Misses != 2 {
		t.Fatalf("cache counters = %+v, want 2 misses", cs)
	}
}

// TestCacheEviction bounds the cache at 2 and pushes 3 distinct designs
// through it.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, CacheEntries: 2})
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/synthesize", tinyN(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("design %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	cs := s.cache.stats()
	if cs.Len != 2 || cs.Evictions != 1 {
		t.Fatalf("cache counters = %+v, want len 2 / 1 eviction", cs)
	}
	// The oldest design was evicted: re-posting it misses.
	resp, _ := post(t, ts.URL+"/v1/synthesize", tinyN(0))
	if c := resp.Header.Get("X-Columbas-Cache"); c != "miss" {
		t.Fatalf("evicted design served from cache (%q)", c)
	}
}

// TestConcurrentFanIn fires far more simultaneous requests than the
// pool admits and checks every one succeeds while the pool bound holds
// (the -race run doubles as the data-race proof for the whole server).
func TestConcurrentFanIn(t *testing.T) {
	const jobs, requests = 2, 8
	s, ts := newTestServer(t, Config{Jobs: jobs})
	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/synthesize?format=json", "text/plain",
				strings.NewReader(tinyN(i%4))) // some keys collide → cache races too
			if err != nil {
				errs[i] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := getStats(t, ts.URL)
	if st.Pool.ActiveHighWater > jobs {
		t.Fatalf("pool bound violated: high water %d > %d jobs", st.Pool.ActiveHighWater, jobs)
	}
	if st.Pool.Active != 0 || st.Pool.Queued != 0 {
		t.Fatalf("pool not drained after fan-in: %+v", st.Pool)
	}
	if st.Requests.Completed != requests {
		t.Fatalf("completed = %d, want %d", st.Requests.Completed, requests)
	}
	_ = s
}

// TestDeadlineCancelsMidSolve gives chip64 a 2-MUX full-effort solve,
// whose branch and bound runs until its 30 s MILP budget, with a
// deadline far below that: the reply must be 504 and the pool must be
// empty again promptly — i.e. the branch-and-bound workers actually
// stopped instead of running out their budget.
func TestDeadlineCancelsMidSolve(t *testing.T) {
	c, err := cases.Get("chip64")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Jobs: 1})
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/synthesize?timeout=40ms&muxes=2&effort=full&time=30s", c.Source)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (after %v): %s", resp.StatusCode, time.Since(start), body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("504 took %v; cancellation did not reach the solver", elapsed)
	}
	// The handler returns only after SynthesizeContext, which joins the
	// solver workers — active must be back to zero immediately.
	st := getStats(t, ts.URL)
	if st.Pool.Active != 0 {
		t.Fatalf("solver still running after 504: %+v", st.Pool)
	}
	if st.Requests.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Requests.Timeouts)
	}
	// A canceled run must not poison the cache.
	if cs := s.cache.stats(); cs.Len != 0 {
		t.Fatalf("canceled result was cached: %+v", cs)
	}
}

// TestQueuedRequestHonorsDeadline: a request stuck behind a full pool
// times out in the queue with 504. The only slot is held through the
// testHold seam rather than by a netlist assumed to solve slowly, so
// the outcome does not depend on solver speed.
func TestQueuedRequestHonorsDeadline(t *testing.T) {
	s := New(Config{Jobs: 1})
	held := make(chan struct{})
	release := make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	s.testHold = func(ctx context.Context) {
		heldOnce.Do(func() { close(held) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	releaseHold := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseHold)

	// Occupy the only slot with a held job.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/synthesize?timeout=30s", "text/plain", strings.NewReader(tinyEditedSrc))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("held job never took the pool slot")
	}
	resp, body := post(t, ts.URL+"/v1/synthesize?timeout=100ms", tinySrc)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued status %d: %s", resp.StatusCode, body)
	}
	releaseHold()
	<-done
}

// TestHealthzAndDrain covers the operational endpoints and graceful
// shutdown: draining flips /readyz to 503 (while /healthz, the
// liveness probe, stays 200) and refuses new synthesis work while an
// in-flight solve runs to a successful completion.
func TestHealthzAndDrain(t *testing.T) {
	s := New(Config{Jobs: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}

	// Start a solve that outlives the drain trigger.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/synthesize?format=svg", "text/plain",
			strings.NewReader(tinySrc))
		if err != nil {
			done <- result{status: -1}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, b}
	}()
	// Wait until the job is actually running (or already finished).
	deadline := time.Now().Add(5 * time.Second)
	for s.active.Load() == 0 && s.completed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()
	// Liveness stays up: a draining process must not be restarted.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining readyz lacks Retry-After")
	}
	resp, err = http.Post(base+"/v1/synthesize", "text/plain", strings.NewReader(tinySrc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining synthesize = %d, want 503", resp.StatusCode)
	}

	// Shutdown must wait for — not kill — the in-flight solve.
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", r.status, r.body)
	}
	if !bytes.Contains(r.body, []byte("<svg")) {
		t.Fatal("drained request returned a torn response")
	}
}

// TestFormatsEndpoint sanity-checks the registry listing.
func TestFormatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/formats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs []struct {
		Name string `json:"name"`
		MIME string `json:"mime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range fs {
		names[f.Name] = true
	}
	for _, want := range []string{"svg", "json", "scr", "dxf"} {
		if !names[want] {
			t.Errorf("formats listing missing %q", want)
		}
	}
}
