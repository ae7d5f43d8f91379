package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"columbas/internal/cases"
)

// postJob submits a columbas-jobrequest/v1 envelope and decodes the
// job resource from the reply.
func postJob(t *testing.T, base string, req map[string]any) (*http.Response, JobDoc) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v2/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc JobDoc
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding job doc: %v\n%s", err, body)
		}
	}
	return resp, doc
}

// getJob fetches the job resource.
func getJob(t *testing.T, base, id string) (int, JobDoc) {
	t.Helper()
	resp, err := http.Get(base + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc JobDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding job doc: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, doc
}

// waitTerminal polls the job resource until it reaches a terminal
// state.
func waitTerminal(t *testing.T, base, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, doc := getJob(t, base, id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s = %d while waiting", id, status)
		}
		if doc.State.Terminal() {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deleteJob issues the cancel request.
func deleteJob(t *testing.T, base, id string) (int, JobDoc) {
	t.Helper()
	req, _ := http.NewRequest("DELETE", base+"/v2/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc JobDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding job doc: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, doc
}

// readSSE consumes a running SSE stream until the terminal state event
// (or EOF) and returns every decoded event.
func readSSE(t *testing.T, body io.Reader) []JobEvent {
	t.Helper()
	var evs []JobEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE data line: %v\n%s", err, line)
		}
		evs = append(evs, ev)
		if ev.Type == "state" && ev.State.Terminal() {
			return evs
		}
	}
	return evs
}

// slowJobReq is a chip64 2-MUX full-effort solve. Its branch and bound
// does not settle before the MILP budget, so the job runs for its whole
// 30 s budget and is still running when a cancel, drain or competing
// request lands, however fast the solver is.
func slowJobReq(t *testing.T) map[string]any {
	t.Helper()
	c, err := cases.Get("chip64")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"schema":  JobRequestSchema,
		"netlist": c.Source,
		"options": map[string]any{"muxes": 2, "effort": "full", "time": "30s", "timeout": "30s"},
	}
}

// TestJobLifecycleAsync walks the happy path: submit → 202 + Location,
// poll to succeeded, fetch the rendered result, and check the sync v1
// wrapper serves the byte-identical design for the same request.
func TestJobLifecycleAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 2})
	resp, doc := postJob(t, ts.URL, map[string]any{
		"schema":  JobRequestSchema,
		"netlist": tinySrc,
		"options": map[string]any{},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/jobs = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v2/jobs/"+doc.ID {
		t.Fatalf("Location = %q, want /v2/jobs/%s", loc, doc.ID)
	}
	if doc.Schema != JobSchema || doc.ID == "" || doc.Name != "tiny" {
		t.Fatalf("job doc = %+v", doc)
	}
	if doc.Links["events"] != "/v2/jobs/"+doc.ID+"/events" {
		t.Fatalf("links = %+v", doc.Links)
	}
	if !doc.Options.RunDRC {
		t.Fatal("resolved options not embedded in job doc")
	}

	final := waitTerminal(t, ts.URL, doc.ID)
	if final.State != JobSucceeded {
		t.Fatalf("final state = %s (error %+v)", final.State, final.Error)
	}
	if final.Cache != "miss" || final.Metrics == nil || final.Metrics.Name != "tiny" {
		t.Fatalf("final doc = %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil || final.ExpiresAt == nil {
		t.Fatalf("terminal doc missing timestamps: %+v", final)
	}

	rresp, err := http.Get(ts.URL + "/v2/jobs/" + doc.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	v2body, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", rresp.StatusCode, v2body)
	}
	if c := rresp.Header.Get("X-Columbas-Cache"); c != "miss" {
		t.Fatalf("result X-Columbas-Cache = %q", c)
	}

	// The v1 sync wrapper runs the same job path: identical key, and a
	// byte-identical design (served from the cache the job filled).
	v1resp, v1body := post(t, ts.URL+"/v1/synthesize?format=json", tinySrc)
	if v1resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 status %d", v1resp.StatusCode)
	}
	if v1resp.Header.Get("X-Columbas-Key") != final.Key {
		t.Fatalf("v1 key %q != job key %q", v1resp.Header.Get("X-Columbas-Key"), final.Key)
	}
	if !bytes.Equal(v1body, v2body) {
		t.Fatal("v1 and v2 render differ for the same request")
	}

	// Re-submitting the same envelope is a cache hit: the job is born
	// terminal in the 202 reply.
	resp2, doc2 := postJob(t, ts.URL, map[string]any{
		"schema":  JobRequestSchema,
		"netlist": tinySrc,
		"options": map[string]any{},
	})
	if resp2.StatusCode != http.StatusAccepted || doc2.State != JobSucceeded || doc2.Cache != "hit" {
		t.Fatalf("hit submit = %d %+v", resp2.StatusCode, doc2)
	}
}

// TestJobRawBodySubmit covers the curl-convenience form: raw netlist
// body with v1-style query parameters.
func TestJobRawBodySubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	resp, err := http.Post(ts.URL+"/v2/jobs?effort=seed&nodrc=1", "text/plain", strings.NewReader(tinySrc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw submit = %d: %s", resp.StatusCode, body)
	}
	var doc JobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Options.RunDRC || !doc.Options.Layout.SkipMILP {
		t.Fatalf("query options not applied: %+v", doc.Options)
	}
	final := waitTerminal(t, ts.URL, doc.ID)
	if final.State != JobSucceeded {
		t.Fatalf("final state = %s", final.State)
	}
}

// TestJobEventsStream checks the SSE progress stream: lifecycle state
// events interleaved with live pipeline spans, ordered seq, and a
// replay (with Last-Event-ID resume) after the job finished.
func TestJobEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	_, doc := postJob(t, ts.URL, map[string]any{
		"schema":  JobRequestSchema,
		"netlist": tinySrc,
	})
	resp, err := http.Get(ts.URL + "/v2/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := readSSE(t, resp.Body)
	if len(evs) < 4 {
		t.Fatalf("only %d events: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Schema != JobEventSchema || ev.Job != doc.ID {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].Type != "state" || evs[0].State != JobQueued {
		t.Fatalf("first event = %+v", evs[0])
	}
	paths := map[string]bool{}
	var sawRunning bool
	for _, ev := range evs {
		if ev.Type == "state" && ev.State == JobRunning {
			sawRunning = true
		}
		if ev.Type == "span-end" {
			paths[ev.Path] = true
		}
	}
	if !sawRunning {
		t.Fatal("no running state event")
	}
	for _, want := range []string{"cache", "planarize", "layout", "validate", "drc"} {
		if !paths[want] {
			t.Fatalf("no span-end for %q (saw %v)", want, paths)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != JobSucceeded || last.Cache != "miss" {
		t.Fatalf("terminal event = %+v", last)
	}
	// The layout span-end carries the solver counters of docs/metrics.md.
	var layoutEnd *JobEvent
	for i := range evs {
		if evs[i].Type == "span-end" && evs[i].Path == "layout" {
			layoutEnd = &evs[i]
		}
	}
	if layoutEnd == nil || layoutEnd.Labels["status"] == "" {
		t.Fatalf("layout span-end lacks counters/labels: %+v", layoutEnd)
	}
	if _, ok := layoutEnd.Counters["milp_nodes"]; !ok {
		t.Fatalf("layout span-end lacks milp_nodes counter: %+v", layoutEnd.Counters)
	}

	// Replay after completion: the full backlog again, then resume past
	// a Last-Event-ID skips what was already seen.
	resp2, err := http.Get(ts.URL + "/v2/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(replay) != len(evs) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(evs))
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v2/jobs/"+doc.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(len(evs)-1))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, resp3.Body)
	resp3.Body.Close()
	if len(resumed) != 1 || resumed[0].Seq != int64(len(evs)) {
		t.Fatalf("resume replay = %+v", resumed)
	}
}

// TestCancelRunningJobAndIdempotency cancels a long solve mid-flight
// via DELETE, then checks cancellation (and cancel-after-complete) is
// idempotent: repeated DELETEs return 200, counters move once, and the
// resource stays retrievable.
func TestCancelRunningJobAndIdempotency(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	resp, doc := postJob(t, ts.URL, slowJobReq(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	// Wait for the solve to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for s.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	if status, _ := deleteJob(t, ts.URL, doc.ID); status != http.StatusOK {
		t.Fatalf("DELETE = %d", status)
	}
	final := waitTerminal(t, ts.URL, doc.ID)
	if final.State != JobCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to stop the solver", elapsed)
	}
	if final.Error == nil || final.Error.Code != CodeCanceled {
		t.Fatalf("canceled job error = %+v", final.Error)
	}
	if got := s.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	// Cancel after complete: same answer, nothing moves.
	for i := 0; i < 2; i++ {
		status, doc2 := deleteJob(t, ts.URL, doc.ID)
		if status != http.StatusOK || doc2.State != JobCanceled {
			t.Fatalf("repeat DELETE %d = %d %s", i, status, doc2.State)
		}
	}
	if got := s.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter moved on repeat DELETE: %d", got)
	}
	// The result subresource replays the terminal error.
	rresp, err := http.Get(ts.URL + "/v2/jobs/" + doc.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != 499 {
		t.Fatalf("result of canceled job = %d, want 499", rresp.StatusCode)
	}
}

// TestCancelCompletedJobIsNoOp: DELETE on a job that succeeded long ago
// answers 200 with the unchanged resource.
func TestCancelCompletedJobIsNoOp(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	_, doc := postJob(t, ts.URL, map[string]any{"netlist": tinySrc})
	final := waitTerminal(t, ts.URL, doc.ID)
	if final.State != JobSucceeded {
		t.Fatalf("state = %s", final.State)
	}
	status, doc2 := deleteJob(t, ts.URL, doc.ID)
	if status != http.StatusOK || doc2.State != JobSucceeded {
		t.Fatalf("DELETE completed = %d %s", status, doc2.State)
	}
	if s.canceled.Load() != 0 {
		t.Fatalf("canceled counter = %d after no-op DELETE", s.canceled.Load())
	}
}

// TestJobTTLExpiry: a terminal job answers 404 once its TTL passed,
// and the store's expired counter records the collection.
func TestJobTTLExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, JobTTL: 50 * time.Millisecond})
	_, doc := postJob(t, ts.URL, map[string]any{"netlist": tinySrc})
	final := waitTerminal(t, ts.URL, doc.ID)
	if final.State != JobSucceeded {
		t.Fatalf("state = %s", final.State)
	}
	time.Sleep(120 * time.Millisecond)
	status, _ := getJob(t, ts.URL, doc.ID)
	if status != http.StatusNotFound {
		t.Fatalf("expired job GET = %d, want 404", status)
	}
	st := getStats(t, ts.URL)
	if st.Jobs.Expired < 1 {
		t.Fatalf("jobs stats = %+v, want >= 1 expired", st.Jobs)
	}
	if st.Jobs.TTLMS != 50 {
		t.Fatalf("ttl_ms = %d", st.Jobs.TTLMS)
	}
}

// TestAdmissionShed: with a single slot and no queue, a second request
// is shed with 429, a Retry-After hint and the overloaded error code —
// on both API versions — instead of piling up.
func TestAdmissionShed(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, MaxQueue: -1})
	resp, slow := postJob(t, ts.URL, slowJobReq(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit = %d", resp.StatusCode)
	}
	// Wait until it occupies the pool.
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL).Pool.Active != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow solve never took the slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// v2 shed.
	resp2, _ := postJob(t, ts.URL, map[string]any{"netlist": tinySrc})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("v2 overload = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}
	// v1 shed, with the structured envelope.
	v1resp, v1body := post(t, ts.URL+"/v1/synthesize", tinySrc)
	if v1resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("v1 overload = %d, want 429", v1resp.StatusCode)
	}
	if v1resp.Header.Get("Retry-After") == "" {
		t.Fatal("v1 429 lacks Retry-After")
	}
	var edoc ErrorDoc
	if err := json.Unmarshal(v1body, &edoc); err != nil {
		t.Fatalf("429 body is not an error envelope: %v\n%s", err, v1body)
	}
	if edoc.Schema != ErrorSchema || edoc.Code != CodeOverloaded {
		t.Fatalf("429 envelope = %+v", edoc)
	}
	st := getStats(t, ts.URL)
	if st.Admission.ShedQueueFull < 2 {
		t.Fatalf("admission stats = %+v, want >= 2 queue-full sheds", st.Admission)
	}
	deleteJob(t, ts.URL, slow.ID)
	waitTerminal(t, ts.URL, slow.ID)
}

// TestDrainWithInFlightAsyncJob: draining refuses new submissions on
// both versions (with Retry-After) while the in-flight async job can
// still be canceled and WaitIdle returns once it settles.
func TestDrainWithInFlightAsyncJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	resp, slow := postJob(t, ts.URL, slowJobReq(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Drain()
	resp2, _ := postJob(t, ts.URL, map[string]any{"netlist": tinySrc})
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("draining v2 submit = %d (Retry-After %q)",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
	// WaitIdle blocks while the job runs...
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.WaitIdle(shortCtx); err == nil {
		t.Fatal("WaitIdle returned while a job was in flight")
	}
	// ...and returns once the canceled job settles.
	deleteJob(t, ts.URL, slow.ID)
	idleCtx, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	if err := s.WaitIdle(idleCtx); err != nil {
		t.Fatalf("WaitIdle after cancel: %v", err)
	}
	// The terminal resource survives the drain for inspection.
	status, doc := getJob(t, ts.URL, slow.ID)
	if status != http.StatusOK || doc.State != JobCanceled {
		t.Fatalf("post-drain job = %d %s", status, doc.State)
	}
}

// TestSSEDisconnectNoLeak opens a progress stream on a long solve,
// drops the client mid-stream, and checks the subscriber goroutine
// (and the job's) are gone once the job is canceled and settled.
func TestSSEDisconnectNoLeak(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	base := runtime.NumGoroutine()

	resp, slow := postJob(t, ts.URL, slowJobReq(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v2/jobs/"+slow.ID+"/events", nil)
	evResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event, then vanish mid-stream.
	buf := make([]byte, 256)
	if _, err := evResp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	evResp.Body.Close()

	deleteJob(t, ts.URL, slow.ID)
	final := waitTerminal(t, ts.URL, slow.ID)
	if final.State != JobCanceled {
		t.Fatalf("state = %s", final.State)
	}
	idleCtx, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	if err := s.WaitIdle(idleCtx); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()

	// Goroutines must settle back to the baseline (plus a little slack
	// for the httptest server's own connection handling).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+5 {
			return
		}
		if time.Now().After(deadline) {
			stack := make([]byte, 1<<20)
			m := runtime.Stack(stack, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", n, base, stack[:m])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestErrorEnvelope: non-2xx replies carry the columbas-error/v1
// envelope with stable codes on both API versions.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	for _, tc := range []struct {
		name, method, url, ctype, body string
		wantStatus                     int
		wantCode                       string
	}{
		{"v1 parse", "POST", "/v1/synthesize", "text/plain", "not a netlist",
			http.StatusBadRequest, CodeNetlistParse},
		{"v1 bad option", "POST", "/v1/synthesize?muxes=3", "text/plain", tinySrc,
			http.StatusBadRequest, CodeInvalidOption},
		{"v1 semantic", "POST", "/v1/synthesize", "text/plain", "design d\nunit m1 mixer\n",
			http.StatusUnprocessableEntity, CodeNetlistInvalid},
		{"v2 parse", "POST", "/v2/jobs", "application/json", `{"netlist":"nope"}`,
			http.StatusBadRequest, CodeNetlistParse},
		{"v2 bad envelope", "POST", "/v2/jobs", "application/json", `{"bogus":1}`,
			http.StatusBadRequest, CodeBadRequest},
		{"v2 bad option", "POST", "/v2/jobs", "application/json",
			`{"netlist":"design d\nunit m1 mixer\nconnect in:a m1\nconnect m1 out:w\n","options":{"effort":"extreme"}}`,
			http.StatusBadRequest, CodeInvalidOption},
		{"v2 removed option no_cuts", "POST", "/v2/jobs", "application/json",
			`{"netlist":"design d\nunit m1 mixer\nconnect in:a m1\nconnect m1 out:w\n","options":{"no_cuts":true}}`,
			http.StatusBadRequest, CodeBadRequest},
		{"v2 removed option kernel", "POST", "/v2/jobs", "application/json",
			`{"netlist":"design d\nunit m1 mixer\nconnect in:a m1\nconnect m1 out:w\n","options":{"kernel":"dense"}}`,
			http.StatusBadRequest, CodeBadRequest},
		{"v2 removed option branching", "POST", "/v2/jobs", "application/json",
			`{"netlist":"design d\nunit m1 mixer\nconnect in:a m1\nconnect m1 out:w\n","options":{"branching":"mostfrac"}}`,
			http.StatusBadRequest, CodeBadRequest},
		{"v2 unknown job", "GET", "/v2/jobs/doesnotexist", "", "",
			http.StatusNotFound, CodeJobNotFound},
		{"v2 unknown job result", "GET", "/v2/jobs/doesnotexist/result", "", "",
			http.StatusNotFound, CodeJobNotFound},
		{"v2 unknown job events", "GET", "/v2/jobs/doesnotexist/events", "", "",
			http.StatusNotFound, CodeJobNotFound},
	} {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, body)
		if tc.ctype != "" {
			req.Header.Set("Content-Type", tc.ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, b)
			continue
		}
		var edoc ErrorDoc
		if err := json.Unmarshal(b, &edoc); err != nil {
			t.Errorf("%s: body is not an error envelope: %v\n%s", tc.name, err, b)
			continue
		}
		if edoc.Schema != ErrorSchema || edoc.Code != tc.wantCode || edoc.Message == "" {
			t.Errorf("%s: envelope = %+v, want code %s", tc.name, edoc, tc.wantCode)
		}
	}
}

// TestResultNotReady: fetching the result of a still-running job is a
// 409 with the not_ready code naming the current state.
func TestResultNotReady(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	resp, slow := postJob(t, ts.URL, slowJobReq(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/v2/jobs/" + slow.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("early result = %d: %s", rresp.StatusCode, b)
	}
	var edoc ErrorDoc
	if err := json.Unmarshal(b, &edoc); err != nil || edoc.Code != CodeNotReady {
		t.Fatalf("early result envelope = %+v (%v)", edoc, err)
	}
	deleteJob(t, ts.URL, slow.ID)
	waitTerminal(t, ts.URL, slow.ID)
}
