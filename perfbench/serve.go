package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"columbas/internal/cases"
	"columbas/internal/core"
	"columbas/internal/gen"
	"columbas/internal/milp"
	"columbas/internal/server"
)

// Serve-workload shape. Each session starts a fresh in-process server
// (2 job slots, 1 branch-and-bound worker per job) and drives it with
// two closed-loop clients over loopback, one connection each — the
// machine has 2 CPUs. Every session replays the same schedule, so the
// sessions of a run are exact repeats of one another.
const (
	serveJobs      = 2
	serveEdits     = 30 // distinct one-unit edits per client per session (chip9 has 33)
	serveRevisits  = 30 // resubmits of an earlier variant per client per session
	serveSessions  = 3  // minimum sessions per run
	serveCacheSize = 128
)

// serveBases are the clients' base designs: two disjoint families, so
// one client's edits never find the other's designs as donors.
func serveBases() []cases.Case { return []cases.Case{cases.ChIP9(), cases.Kinase21()} }

// serveOp is one scheduled submit: a fresh edit or a revisit.
type serveOp struct {
	revisit bool
	variant int // index into the client's variants; 0 is the base
}

// clientPlan is one client's inputs and schedule.
type clientPlan struct {
	name     string
	variants []string // base text, then the distinct edits in order
	ops      []serveOp
}

// servePlans draws each client's edits and revisit schedule from seed.
// Edits are gen.EditSequenceFrom(base, s, 1) over a seed stream, kept
// only when their text is new, so an edit is never an accidental hit.
func servePlans(seed int64, edits, revisits int) ([]clientPlan, error) {
	var plans []clientPlan
	for ci, c := range serveBases() {
		base, err := c.Netlist()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed*1000003 + int64(ci)))
		p := clientPlan{name: base.Name, variants: []string{base.Format()}}
		seen := map[string]bool{p.variants[0]: true}
		for tries := 0; len(p.variants) <= edits; tries++ {
			if tries == 100*edits {
				return nil, fmt.Errorf("%s has fewer than %d distinct one-unit edits", base.Name, edits)
			}
			e := gen.EditSequenceFrom(base, rng.Int63n(1<<40), 1)[1]
			if src := e.Format(); !seen[src] {
				seen[src] = true
				p.variants = append(p.variants, src)
			}
		}
		next, left := 1, revisits
		for next <= edits || left > 0 {
			if next <= edits && (left == 0 || rng.Intn(2) == 0) {
				p.ops = append(p.ops, serveOp{variant: next})
				next++
			} else {
				p.ops = append(p.ops, serveOp{revisit: true, variant: rng.Intn(next)})
				left--
			}
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// request is one settled client request.
type request struct {
	client  string
	class   string // "base", "edit", "hit" or "fetch"
	variant int
	lat     time.Duration
	doc     *server.JobDoc
	stages  map[string]float64 // span-end wall_ms per pipeline phase (edits)
	counts  map[string]float64 // layout, planarize and mux span counters (edits)
	notify  time.Duration      // finished_at → terminal event received
	submit  time.Duration
	bytes   int
	failure string
	untyped bool // failure without a columbas-error/v1 code
}

// client drives one base design's session schedule.
type client struct {
	plan clientPlan
	url  string
	http *http.Client
	rec  *recorder
}

func newClient(plan clientPlan, url string, rec *recorder) *client {
	return &client{plan: plan, url: url, rec: rec, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// submit POSTs a netlist, follows the job's event stream to its terminal
// state and reads the job document. The request's latency is submit to
// terminal event.
func (c *client) submit(ctx context.Context, class string, variant int) request {
	r := request{client: c.plan.name, class: class, variant: variant}
	start := time.Now()
	op := c.rec.begin(class, "", -1)
	sp := c.rec.begin("submit", "", op)
	var created server.JobDoc
	status, err := c.do(ctx, "POST", "/v2/jobs", c.plan.variants[variant], &created)
	c.rec.end(sp)
	r.submit = time.Since(start)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		c.rec.end(op)
		var ed *errorDoc
		r.failure, r.untyped = "submit: "+err.Error(), !errors.As(err, &ed)
		return r
	}
	c.rec.label(op, created.ID)
	c.rec.label(sp, created.ID)
	sp = c.rec.begin("follow", created.ID, op)
	final, stages, counts, err := c.follow(ctx, created.ID, class == "edit" && c.rec != nil)
	received := time.Now()
	c.rec.end(sp)
	c.rec.end(op)
	r.lat = time.Since(start)
	var doc server.JobDoc
	if err == nil {
		_, err = c.do(ctx, "GET", "/v2/jobs/"+created.ID, "", &doc)
	}
	if err != nil {
		r.failure, r.untyped = "follow: "+err.Error(), true
		return r
	}
	r.doc, r.stages, r.counts = &doc, stages, counts
	if doc.FinishedAt != nil {
		r.notify = received.Sub(*doc.FinishedAt)
		if doc.StartedAt != nil {
			c.rec.interval("queue", doc.ID, op, doc.CreatedAt, *doc.StartedAt)
			c.rec.interval("run", doc.ID, op, *doc.StartedAt, *doc.FinishedAt)
		}
		c.rec.interval("notify", doc.ID, op, *doc.FinishedAt, received)
	}
	switch {
	case final.State != server.JobSucceeded:
		r.failure = fmt.Sprintf("job %s ended %s", doc.ID, final.State)
		if final.Error != nil {
			r.failure += ": " + final.Error.Code
		}
		r.untyped = final.Error == nil || final.Error.Code == ""
	case (final.Cache == "hit") != (class == "hit"):
		r.failure, r.untyped = fmt.Sprintf("job %s: cache %q on a %s", doc.ID, final.Cache, class), true
	case doc.Metrics == nil || !doc.Options.RunDRC:
		r.failure, r.untyped = fmt.Sprintf("job %s: no DRC-checked metrics", doc.ID), true
	case class != "hit" && ranIntoBudget(doc):
		r.failure = fmt.Sprintf("job %s: budget: status %s", doc.ID, doc.Metrics.SolverStatus)
	}
	return r
}

// ranIntoBudget reports whether a solve ended on its wall-clock
// budget: status limit, or a run as long as the layout budget.
func ranIntoBudget(doc server.JobDoc) bool {
	if doc.Metrics.SolverStatus == milp.Limit {
		return true
	}
	budget := doc.Options.Layout.TimeLimit
	if budget <= 0 {
		budget = 30 * time.Second
	}
	return doc.StartedAt != nil && doc.FinishedAt.Sub(*doc.StartedAt) >= budget
}

// fetch GETs the job's result rendered as SVG.
func (c *client) fetch(ctx context.Context, job request) request {
	r := request{client: c.plan.name, class: "fetch", variant: job.variant}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, "GET", c.url+"/v2/jobs/"+job.doc.ID+"/result?format=svg", nil)
	if err != nil {
		r.failure, r.untyped = err.Error(), true
		return r
	}
	sp := c.rec.begin("fetch", job.doc.ID, -1)
	resp, err := c.http.Do(req)
	if err != nil {
		c.rec.end(sp)
		r.failure, r.untyped = "fetch: "+err.Error(), true
		return r
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.rec.end(sp)
	r.lat, r.bytes = time.Since(start), int(n)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "image/svg") {
		r.failure, r.untyped = fmt.Sprintf("fetch: status %d: %v", resp.StatusCode, err), true
	}
	return r
}

// errorDoc is a columbas-error/v1 answer: a typed refusal or failure.
type errorDoc struct{ server.ErrorDoc }

func (e *errorDoc) Error() string { return e.Code + ": " + e.Message }

// do sends one request and decodes a JSON answer into out; an error
// answer comes back as an *errorDoc.
func (c *client) do(ctx context.Context, method, path, body string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		var ed errorDoc
		if json.Unmarshal(b, &ed) != nil || ed.Code == "" {
			return resp.StatusCode, fmt.Errorf("status %d without an error envelope", resp.StatusCode)
		}
		return resp.StatusCode, &ed
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// follow reads the job's SSE stream to the terminal state event. With
// stages set it also collects the pipeline spans the server relays:
// each phase's wall time and the layout, planarize and mux counters.
func (c *client) follow(ctx context.Context, id string, stages bool) (final server.JobEvent, walls, counts map[string]float64, err error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.url+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return final, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return final, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, nil, nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	walls, counts = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.JobEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return final, nil, nil, fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Type == "state" && ev.State.Terminal():
			// Drain the rest so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev, walls, counts, nil
		case stages && ev.Type == "span-end":
			switch ev.Path {
			case "planarize", "layout", "validate", "drc":
				walls[ev.Path] = ev.WallMS
			}
			switch ev.Path {
			case "planarize", "layout", "validate/mux synthesis":
				for k, v := range ev.Counters {
					counts[ev.Path+"."+k] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return final, nil, nil, err
	}
	return final, nil, nil, errors.New("events: stream ended before a terminal state")
}

// session is one fresh server driven through the schedule.
type session struct {
	setup   time.Duration
	window  time.Duration
	reqs    []request
	setupSt server.SolverStats // solver work of the base solves
	timedSt server.SolverStats // solver work of the timed window
	cache   server.CacheStats  // timed-window cache counters
	evicted int64
	shed    int64
	failure string // set when the base solves failed
}

// runSession starts a server on loopback, solves both bases (set-up)
// and runs both clients' schedules (timed).
func runSession(ctx context.Context, plans []clientPlan, t0 time.Time, rec *recorder) (*session, error) {
	srv := server.New(server.Config{Jobs: serveJobs, Workers: 1, CacheEntries: serveCacheSize})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	clients := make([]*client, len(plans))
	for i, p := range plans {
		clients[i] = newClient(p, url, rec)
	}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // closes the listener; Serve returns at once
		<-served
		_ = srv.WaitIdle(sctx) // every job is terminal by now; the wait is a formality
	}()

	s := &session{}
	st0, err := stats(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	// Set-up: each client solves its base design; both run at once.
	bases := make([]request, len(clients))
	parallel(len(clients), func(i int) { bases[i] = clients[i].submit(ctx, "base", 0) })
	for _, b := range bases {
		if b.failure != "" {
			s.failure = "base " + b.client + ": " + b.failure
		}
	}
	s.setup = time.Since(t0)
	st1, err := stats(ctx, clients[0])
	if err != nil {
		return nil, err
	}

	// Timed: both clients run their schedules, each op a submit followed
	// by a fetch of the result as SVG.
	start := time.Now()
	perClient := make([][]request, len(clients))
	parallel(len(clients), func(i int) {
		c := clients[i]
		for _, op := range c.plan.ops {
			class := "edit"
			if op.revisit {
				class = "hit"
			}
			r := c.submit(ctx, class, op.variant)
			perClient[i] = append(perClient[i], r)
			if r.failure == "" {
				perClient[i] = append(perClient[i], c.fetch(ctx, r))
			}
		}
	})
	s.window = time.Since(start)
	st2, err := stats(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	for _, rs := range perClient {
		s.reqs = append(s.reqs, rs...)
	}
	s.setupSt, s.timedSt = solverDelta(st1.Solver, st0.Solver), solverDelta(st2.Solver, st1.Solver)
	s.cache = server.CacheStats{
		Hits:           st2.Cache.Hits - st1.Cache.Hits,
		SimilarityHits: st2.Cache.SimilarityHits - st1.Cache.SimilarityHits,
	}
	s.evicted = st2.Cache.Evictions
	s.shed = st2.Admission.ShedQueueFull + st2.Admission.ShedDeadline
	return s, nil
}

// parallel runs f(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// stats reads the server's /v1/stats document.
func stats(ctx context.Context, c *client) (server.Stats, error) {
	var st server.Stats
	status, err := c.do(ctx, "GET", "/v1/stats", "", &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("stats: status %d", status)
	}
	return st, err
}

// solverDelta is the solver work between two snapshots. BasisNonzeros
// is a high-water mark, not a sum, so it has no delta and reads 0.
func solverDelta(b, a server.SolverStats) server.SolverStats {
	return server.SolverStats{
		LPSolves:               b.LPSolves - a.LPSolves,
		SimplexPivots:          b.SimplexPivots - a.SimplexPivots,
		WarmStarts:             b.WarmStarts - a.WarmStarts,
		EtaUpdates:             b.EtaUpdates - a.EtaUpdates,
		Refactorizations:       b.Refactorizations - a.Refactorizations,
		SparseRefactorizations: b.SparseRefactorizations - a.SparseRefactorizations,
		DenseFallbacks:         b.DenseFallbacks - a.DenseFallbacks,
		FillIn:                 b.FillIn - a.FillIn,
		WorkspaceReuses:        b.WorkspaceReuses - a.WorkspaceReuses,
		CutsAdded:              b.CutsAdded - a.CutsAdded,
		CutRounds:              b.CutRounds - a.CutRounds,
		NodesPresolved:         b.NodesPresolved - a.NodesPresolved,
		BoundsTightened:        b.BoundsTightened - a.BoundsTightened,
		Branchings:             b.Branchings - a.Branchings,
		PseudocostBranches:     b.PseudocostBranches - a.PseudocostBranches,
		DeltaWarmStarts:        b.DeltaWarmStarts - a.DeltaWarmStarts,
		DeltaFallbacks:         b.DeltaFallbacks - a.DeltaFallbacks,
		IncumbentFromHint:      b.IncumbentFromHint - a.IncumbentFromHint,
	}
}

// designKey names an edit design across sessions.
func designKey(r request) string { return fmt.Sprintf("%s-v%d", r.client, r.variant) }

// quality is the part of a job's metrics that must repeat exactly.
func quality(m core.Metrics) core.Metrics {
	m.Runtime = 0
	return m
}

// runServe runs the serve workload: sessions until --seconds have
// passed, at least serveSessions of them (four on trace runs, which mix
// untraced and traced sessions and compare the two).
func runServe(ctx context.Context, cfg config) (*runReport, error) {
	edits, revisits, minSessions := serveEdits, serveRevisits, serveSessions
	if cfg.smoke {
		edits, revisits, minSessions = 2, 2, 2
	}
	if cfg.trace && !cfg.smoke {
		// Two untraced and two traced sessions, interleaved.
		minSessions = 4
	}
	var sessions []*session
	var traced []bool
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for k := 0; k < minSessions || time.Now().Before(deadline); k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		plans, err := servePlans(cfg.seed, edits, revisits)
		if err != nil {
			return nil, err
		}
		// Trace runs order their sessions untraced, traced, traced,
		// untraced, so a drift in machine speed cancels in the overhead.
		tr := cfg.trace && (k%4 == 1 || k%4 == 2)
		var r *recorder
		if tr {
			r = rec
		}
		s, err := runSession(ctx, plans, t0, r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "serve: session %d (traced %v): set-up %.2fs, timed %.2fs, %d requests\n",
			k, tr, s.setup.Seconds(), s.window.Seconds(), len(s.reqs))
		sessions = append(sessions, s)
		traced = append(traced, tr)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return serveReport(cfg, sessions, traced, rec), nil
}

// serveReport checks the sessions against each other and assembles the
// metrics. A session that evicted a cache entry, or whose solver work or
// designs differ from the first session's, counts all its requests as
// failed: its donor choices could have depended on timing.
func serveReport(cfg config, sessions []*session, traced []bool, rec *recorder) *runReport {
	rep := &runReport{}
	correct := true
	attempted, failed := 0, 0
	ref := sessions[0]
	refDesigns := map[string]core.Metrics{}
	for _, r := range ref.reqs {
		if r.class == "edit" && r.failure == "" {
			refDesigns[designKey(r)] = quality(*r.doc.Metrics)
		}
	}

	var setups []float64
	edits := map[string][]float64{}
	var order []string
	var all, allTraced []float64
	var window time.Duration
	completed := 0
	var firstEdits []request
	var tracedEdits, tracedSubmits, tracedFetches []request
	classes := map[string][]float64{}
	for k, s := range sessions {
		setups = append(setups, s.setup.Seconds())
		attempted += len(s.reqs)
		why := s.failure
		if why != "" {
			correct = false
		}
		if s.evicted > 0 {
			why = fmt.Sprintf("session %d evicted %d cache entries", k, s.evicted)
		}
		if s.setupSt != ref.setupSt {
			why, correct = fmt.Sprintf("session %d: base-solve solver work differs from session 0", k), false
		}
		if s.timedSt != ref.timedSt {
			why, correct = fmt.Sprintf("session %d: timed solver work %+v differs from session 0 %+v", k, s.timedSt, ref.timedSt), false
		}
		for _, r := range s.reqs {
			if r.class == "edit" && r.failure == "" && refDesigns[designKey(r)] != quality(*r.doc.Metrics) {
				why, correct = fmt.Sprintf("session %d: design %s differs from session 0", k, designKey(r)), false
			}
		}
		if why != "" {
			rep.Failures = append(rep.Failures, why)
			failed += len(s.reqs)
			continue
		}
		window += s.window
		for _, r := range s.reqs {
			if r.failure != "" {
				failed++
				if r.untyped {
					correct = false
				}
				rep.Failures = append(rep.Failures, fmt.Sprintf("session %d %s %s: %s", k, r.class, designKey(r), r.failure))
				continue
			}
			completed++
			l := ms(r.lat)
			if traced[k] {
				allTraced = append(allTraced, l)
				switch r.class {
				case "edit":
					tracedEdits = append(tracedEdits, r)
					tracedSubmits = append(tracedSubmits, r)
				case "hit":
					tracedSubmits = append(tracedSubmits, r)
				case "fetch":
					tracedFetches = append(tracedFetches, r)
				}
				continue
			}
			all = append(all, l)
			classes[r.class] = append(classes[r.class], l)
			if r.class == "edit" {
				key := designKey(r)
				if _, ok := edits[key]; !ok {
					order = append(order, key)
					firstEdits = append(firstEdits, r)
				}
				edits[key] = append(edits[key], l)
			}
		}
	}

	f := newFigures()
	f.set("setup_s", median(setups), len(setups))
	var medians, area, flow []float64
	inlets := 0
	for _, r := range firstEdits {
		m := r.doc.Metrics
		area = append(area, m.WidthMM*m.HeightMM)
		flow = append(flow, m.FlowMM)
		inlets += m.CtrlInlets
	}
	for i, key := range order {
		m := firstEdits[i].doc.Metrics
		medians = append(medians, median(edits[key]))
		rep.Designs = append(rep.Designs, designRow{Name: key, Samples: len(edits[key]), MedianMS: median(edits[key]), Checked: true,
			FP: fingerprint{Status: m.SolverStatus.String(), AreaMM2: m.WidthMM * m.HeightMM, FlowMM: m.FlowMM, CtrlInlets: m.CtrlInlets}})
	}
	for _, class := range []string{"edit", "hit", "fetch"} {
		ls := classes[class]
		rep.Classes = append(rep.Classes, classRow{Class: class, N: len(ls), P50MS: percentile(ls, 50), P90MS: percentile(ls, 90)})
	}
	f.set("synth_geomean_ms", geomean(medians), len(classes["edit"]))
	f.set("request_geomean_ms", geomean(all), len(all))
	if window > 0 {
		f.set("jobs_per_s", float64(completed)/window.Seconds(), completed)
	}
	f.set("peak_rss_mb", peakRSSMB(), 1)
	f.set("area_geomean_mm2", geomean(area), len(area))
	f.set("flow_geomean_mm", geomean(flow), len(flow))
	f.set("ctrl_inlets_total", float64(inlets), len(firstEdits))

	if rec != nil {
		rep.Spans = rec.finish()
		setServeLayers(f, sessions, traced, tracedEdits, tracedSubmits, tracedFetches)
		f.set("trace.overhead_pct", 100*(geomean(allTraced)/geomean(all)-1), len(allTraced))
	}
	rep.Result = result{Correct: correct, Attempted: attempted, Failed: failed}
	rep.Result.Metrics, rep.Samples = f.metrics(cfg.trace)
	return rep
}

// setServeLayers fills the per-layer metrics of the traced sessions:
// client-side request times, the job documents' queue and run
// intervals, the phase spans the server relays over SSE, the solver
// counters as /v1/stats deltas per edit, and the cache counters per
// session. Evictions and shed requests are totals over every session.
func setServeLayers(f *figures, sessions []*session, traced []bool, edits, submits, fetches []request) {
	var submit, queue, run, notify, fetch, fetchBytes, residual []float64
	stage := map[string][]float64{}
	for _, r := range submits {
		submit = append(submit, ms(r.submit))
	}
	for _, r := range fetches {
		fetch = append(fetch, ms(r.lat))
		fetchBytes = append(fetchBytes, float64(r.bytes))
	}
	var fps []fingerprint
	for _, r := range edits {
		d := r.doc
		if d.StartedAt == nil || d.FinishedAt == nil {
			continue
		}
		runMS := ms(d.FinishedAt.Sub(*d.StartedAt))
		queue = append(queue, ms(d.StartedAt.Sub(d.CreatedAt)))
		run = append(run, runMS)
		notify = append(notify, ms(r.notify))
		sum := 0.0
		for _, p := range []string{"planarize", "layout", "validate", "drc"} {
			stage[p] = append(stage[p], r.stages[p])
			sum += r.stages[p]
		}
		residual = append(residual, runMS-sum)
		c := r.counts
		fps = append(fps, fingerprint{
			Rows:          int(c["layout.rows"]),
			Binaries:      int(c["layout.binaries"]),
			SepRounds:     int(c["layout.sep_rounds"]),
			Nodes:         int64(c["layout.milp_nodes"]),
			NodesCutoff:   int64(c["layout.milp_nodes_cutoff"]),
			WarmFallbacks: int64(c["layout.milp_warm_fallbacks"]),
			Phase1Rows:    int64(c["layout.milp_phase1_rows"]),
			BasisNonzeros: int64(c["layout.milp_basis_nonzeros"]),
			Channels:      int(c["planarize.channels"]),
			Valves:        int(c["validate/mux synthesis.valves"]),
		})
	}
	f.setCounts(fps)
	// The counters /v1/stats carries come from its deltas over the
	// traced sessions' timed windows, per edit.
	var sum server.SolverStats
	var hits, simHits, evictions, shed float64
	nt := 0
	for k, s := range sessions {
		evictions += float64(s.evicted)
		shed += float64(s.shed)
		if traced[k] {
			sum = addSolver(sum, s.timedSt)
			hits += float64(s.cache.Hits)
			simHits += float64(s.cache.SimilarityHits)
			nt++
		}
	}
	f.set("server.cache_hits", hits/float64(nt), nt)
	f.set("server.similarity_hits", simHits/float64(nt), nt)
	f.set("server.delta_warm_starts", float64(sum.DeltaWarmStarts)/float64(nt), nt)
	f.set("server.delta_fallbacks", float64(sum.DeltaFallbacks)/float64(nt), nt)
	f.set("server.evictions", evictions, len(sessions))
	f.set("server.shed", shed, len(sessions))
	n := float64(len(edits))
	if n > 0 {
		for name, v := range map[string]int64{
			"milp.lp_solves":             sum.LPSolves,
			"milp.branchings":            sum.Branchings,
			"milp.cut_rounds":            sum.CutRounds,
			"milp.cuts_added":            sum.CutsAdded,
			"milp.bounds_tightened":      sum.BoundsTightened,
			"lp.pivots":                  sum.SimplexPivots,
			"lp.refactorizations":        sum.Refactorizations,
			"lp.sparse_refactorizations": sum.SparseRefactorizations,
			"lp.workspace_reuses":        sum.WorkspaceReuses,
			"lp.warm_starts":             sum.WarmStarts,
			"lp.fill_in":                 sum.FillIn,
		} {
			f.set(name, float64(v)/n, len(edits))
		}
	}
	f.set("export.scr_bytes", 0, 0)
	f.set("planar.planarize_ms", mean(stage["planarize"]), len(run))
	f.set("layout.generate_ms", mean(stage["layout"]), len(run))
	f.set("validate.validate_ms", mean(stage["validate"]), len(run))
	f.set("drc.check_ms", mean(stage["drc"]), len(run))
	f.set("core.residual_ms", mean(residual), len(run))
	f.set("server.submit_ms", mean(submit), len(submit))
	f.set("server.queue_wait_ms", mean(queue), len(queue))
	f.set("server.run_ms", mean(run), len(run))
	f.set("server.notify_ms", mean(notify), len(notify))
	f.set("server.fetch_ms", mean(fetch), len(fetch))
	f.set("server.fetch_bytes", mean(fetchBytes), len(fetchBytes))
}

// addSolver sums two solver blocks field by field: a − (0 − b).
func addSolver(a, b server.SolverStats) server.SolverStats {
	return solverDelta(a, solverDelta(server.SolverStats{}, b))
}
