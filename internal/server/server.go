package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"columbas/internal/core"
	"columbas/internal/export"
	"columbas/internal/obs"
)

// Config parameterizes a synthesis server. The zero value is usable:
// every field has a production default filled in by New.
type Config struct {
	// Jobs bounds the number of synthesis runs in flight at once; further
	// admitted jobs queue until a slot frees or their deadline fires. 0
	// means runtime.GOMAXPROCS(0).
	Jobs int
	// MaxQueue bounds the number of admitted-but-not-running jobs. A
	// submission past pool+queue capacity is shed with 429 and a
	// Retry-After hint instead of waiting. 0 means 8×Jobs; negative
	// means no queue at all (shed whenever the pool is full).
	MaxQueue int
	// Workers is the MILP branch-and-bound parallelism of each job
	// (layout.Options.Workers). 0 means 1 — with a full pool, Jobs
	// sequential solves already saturate the cores; raise Workers and
	// lower Jobs to trade throughput for latency. Negative means all
	// cores. Clients may lower (never raise) it per request via
	// ?workers=.
	Workers int
	// CacheEntries bounds the content-addressed result cache. 0 means the
	// default of 128 completed designs; negative disables caching.
	CacheEntries int
	// DefaultTimeout is the per-request synthesis deadline applied when
	// the client sends no ?timeout=. 0 means the default of 2 minutes;
	// negative means no implicit deadline.
	DefaultTimeout time.Duration
	// MaxLayoutTime caps the per-request MILP budget (?time=). 0 means
	// the default of 5 minutes.
	MaxLayoutTime time.Duration
	// MaxBodyBytes caps the netlist source size. 0 means 1 MiB.
	MaxBodyBytes int64
	// JobTTL is how long a terminal job resource stays retrievable via
	// GET /v2/jobs/{id} after it finishes. 0 means the default of 5
	// minutes; negative retains jobs until process exit.
	JobTTL time.Duration
	// TraceSink, when non-nil, receives one columbas-trace/v1 JSON
	// document per line for every synthesis request (cache hits
	// included: their trace is the single "cache" span). Writes are
	// serialized by the server.
	TraceSink io.Writer
	// NoPresolve disables MILP presolve (bound tightening, redundant
	// rows, coefficient strengthening).
	NoPresolve bool
	// NoDelta disables the delta-aware warm-start pipeline for every job
	// served by this process: no similarity-index donors, no /v2/explore
	// hint chaining — every solve runs cold (ablation deployments).
	NoDelta bool
}

// drainRetryAfter is the backoff hint sent with draining refusals: the
// client should come back once a replacement instance took over.
const drainRetryAfter = 5 * time.Second

// Server is the columbasd HTTP API: synthesis as asynchronous job
// resources (POST /v2/jobs + status, result, SSE progress and cancel
// subresources) behind an admission-controlled bounded worker pool,
// with a content-addressed result cache and a TTL'd job store.
// /v1/synthesize remains as a synchronous wrapper over the same job
// path. It implements http.Handler; see docs/api.md for the wire
// contract.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{} // counting semaphore: one token per running job
	cache *resultCache
	adm   *admission
	jobs  *jobStore
	start time.Time

	draining atomic.Bool
	active   atomic.Int64

	jobsWG sync.WaitGroup // one count per spawned job goroutine

	mu       sync.Mutex // guards activeHW
	activeHW int64

	completed atomic.Int64
	failed    atomic.Int64
	timeouts  atomic.Int64
	canceled  atomic.Int64

	// Cumulative LP-kernel work across all completed syntheses (cache
	// hits contribute nothing — no solver ran).
	lpSolves      atomic.Int64
	simplexPivots atomic.Int64
	warmStarts    atomic.Int64
	etaUpdates    atomic.Int64
	refactors     atomic.Int64
	fillIn        atomic.Int64
	basisNnz      atomic.Int64 // high-water max, not a sum
	wsReuses      atomic.Int64
	cutsAdded     atomic.Int64
	cutRounds     atomic.Int64
	nodesPresolve atomic.Int64
	boundsTight   atomic.Int64
	branchings    atomic.Int64
	deltaWarms    atomic.Int64
	deltaFBs      atomic.Int64
	incFromHint   atomic.Int64

	traceMu sync.Mutex

	// testHold, when set before the server starts serving, runs each
	// job right after it takes its pool slot and before the pipeline
	// starts: a test seam for holding the slot independent of solve
	// speed.
	testHold func(ctx context.Context)
}

// New builds a Server, filling config defaults.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 8 * cfg.Jobs
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0 // no queue: shed when the pool is full
	}
	switch {
	case cfg.Workers == 0:
		cfg.Workers = 1
	case cfg.Workers < 0:
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 128
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0 // disabled
	}
	switch {
	case cfg.DefaultTimeout == 0:
		cfg.DefaultTimeout = 2 * time.Minute
	case cfg.DefaultTimeout < 0:
		cfg.DefaultTimeout = 0 // no implicit deadline
	}
	if cfg.MaxLayoutTime <= 0 {
		cfg.MaxLayoutTime = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	switch {
	case cfg.JobTTL == 0:
		cfg.JobTTL = 5 * time.Minute
	case cfg.JobTTL < 0:
		cfg.JobTTL = 0 // retain until process exit
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.Jobs),
		cache: newResultCache(cfg.CacheEntries),
		adm:   newAdmission(cfg.Jobs, cfg.MaxQueue),
		jobs:  newJobStore(cfg.JobTTL),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/formats", s.handleFormats)
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobCreate)
	s.mux.HandleFunc("POST /v2/explore", s.handleExplore)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v2/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain flips the server into shutdown mode: /readyz turns 503 so load
// balancers stop routing here, and new synthesis submissions are
// refused with 503 while in-flight jobs run to completion. Pair it
// with http.Server.Shutdown (which waits for open connections) and
// WaitIdle (which waits for detached async jobs).
func (s *Server) Drain() { s.draining.Store(true) }

// WaitIdle blocks until every spawned job goroutine has reached a
// terminal state, or ctx fires. Async jobs outlive their submitting
// connection, so http.Server.Shutdown alone does not cover them; a
// graceful exit is Drain, then Shutdown, then WaitIdle.
func (s *Server) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is the GET /v1/stats document.
type Stats struct {
	// Schema identifies this document layout.
	Schema string `json:"schema"`
	// UptimeMS is the server's age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// Pool reports the worker-pool state.
	Pool PoolStats `json:"pool"`
	// Admission reports the load-shedding layer in front of the pool.
	Admission AdmissionStats `json:"admission"`
	// Jobs reports the v2 job store.
	Jobs JobStats `json:"jobs"`
	// Requests reports the synthesis request counters.
	Requests RequestStats `json:"requests"`
	// Solver aggregates LP-kernel work across completed syntheses.
	Solver SolverStats `json:"solver"`
	// Cache reports the content-addressed result cache counters.
	Cache CacheStats `json:"cache"`
}

// StatsSchema is the Stats document schema identifier.
const StatsSchema = "columbas-serverstats/v1"

// PoolStats describes the bounded worker pool.
type PoolStats struct {
	// Jobs is the pool bound; Workers the MILP parallelism of each job.
	Jobs    int `json:"jobs"`
	Workers int `json:"workers"`
	// Active is the number of running synthesis jobs; Queued the number
	// admitted but waiting for a slot; ActiveHighWater the maximum of
	// Active since start (never exceeds Jobs).
	Active          int64 `json:"active"`
	Queued          int64 `json:"queued"`
	ActiveHighWater int64 `json:"active_high_water"`
	// Draining reports shutdown mode.
	Draining bool `json:"draining"`
}

// RequestStats counts synthesis jobs by outcome, v1 and v2 combined.
// Cache hits are counted under Completed as well as in CacheStats.Hits.
type RequestStats struct {
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Timeouts  int64 `json:"timeouts"`
	Canceled  int64 `json:"canceled"`
}

// SolverStats is the cumulative LP-kernel work behind every completed
// synthesis — the milp_* counter family of docs/metrics.md summed over
// requests (cache hits run no solver and add nothing). It makes kernel
// health observable in production without tracing: warm_starts near
// lp_solves and workspace_reuses near warm_starts mean the factorization
// cache is doing its job; a rising refactorizations share means bases
// are churning.
// The search-tree reduction family (cuts_added onward) mirrors the same
// health story for the branch-and-bound layer: cuts_added and
// bounds_tightened near zero on a default deployment mean the reductions
// have nothing to bite on.
type SolverStats struct {
	LPSolves         int64 `json:"lp_solves"`
	SimplexPivots    int64 `json:"simplex_pivots"`
	WarmStarts       int64 `json:"warm_starts"`
	EtaUpdates       int64 `json:"eta_updates"`
	Refactorizations int64 `json:"refactorizations"`
	// SparseRefactorizations always equals Refactorizations.
	//
	// Deprecated: the LP kernel has one engine; read Refactorizations.
	SparseRefactorizations int64 `json:"sparse_refactorizations"`
	// DenseFallbacks is always 0.
	//
	// Deprecated: the LP kernel has no dense engine to fall back to.
	DenseFallbacks int64 `json:"dense_fallbacks"`
	// FillIn is the cumulative LU fill, and BasisNonzeros the high-water
	// basis density seen by any worker (a max across requests, not a
	// sum).
	FillIn          int64 `json:"fill_in"`
	BasisNonzeros   int64 `json:"basis_nonzeros"`
	WorkspaceReuses int64 `json:"workspace_reuses"`
	CutsAdded       int64 `json:"cuts_added"`
	CutRounds       int64 `json:"cut_rounds"`
	NodesPresolved  int64 `json:"nodes_presolved"`
	BoundsTightened int64 `json:"bounds_tightened"`
	Branchings      int64 `json:"branchings"`
	// PseudocostBranches is always 0.
	//
	// Deprecated: branch and bound has one variable rule, most-fractional,
	// and no pseudocost branching.
	PseudocostBranches int64 `json:"pseudocost_branches"`
	// The delta family mirrors the milp_delta_* counters: warm starts and
	// fallbacks of the delta-aware pipeline, and incumbents seeded from a
	// donor design. All three stay zero on a -no-delta deployment.
	DeltaWarmStarts   int64 `json:"delta_warm_starts"`
	DeltaFallbacks    int64 `json:"delta_fallbacks"`
	IncumbentFromHint int64 `json:"incumbent_from_hint"`
}

// recordSolverStats folds a completed synthesis's search counters into
// the server-lifetime solver block.
func (s *Server) recordSolverStats(res *core.Result) {
	if res == nil || res.Plan == nil {
		return
	}
	se := res.Plan.Stats.Search
	s.lpSolves.Add(se.LPSolves)
	s.simplexPivots.Add(se.SimplexPivots)
	s.warmStarts.Add(se.WarmStarts)
	s.etaUpdates.Add(se.EtaUpdates)
	s.refactors.Add(se.Refactorizations)
	s.fillIn.Add(se.FillIn)
	// BasisNonzeros is a high-water mark: CAS-max rather than add.
	for {
		cur := s.basisNnz.Load()
		if se.BasisNonzeros <= cur || s.basisNnz.CompareAndSwap(cur, se.BasisNonzeros) {
			break
		}
	}
	s.wsReuses.Add(se.WorkspaceReuses)
	s.cutsAdded.Add(se.CutsAdded)
	s.cutRounds.Add(se.CutRounds)
	s.nodesPresolve.Add(se.NodesPresolved)
	s.boundsTight.Add(se.BoundsTightened)
	s.branchings.Add(se.Branchings)
	s.deltaWarms.Add(se.DeltaWarmStarts)
	s.deltaFBs.Add(se.DeltaFallbacks)
	s.incFromHint.Add(se.IncumbentFromHint)
}

// snapshot assembles the current Stats.
func (s *Server) snapshot() Stats {
	s.mu.Lock()
	hw := s.activeHW
	s.mu.Unlock()
	adm := s.adm.snapshot()
	return Stats{
		Schema:   StatsSchema,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Pool: PoolStats{
			Jobs:            s.cfg.Jobs,
			Workers:         s.cfg.Workers,
			Active:          s.active.Load(),
			Queued:          adm.Queued,
			ActiveHighWater: hw,
			Draining:        s.draining.Load(),
		},
		Admission: adm,
		Jobs:      s.jobs.stats(),
		Requests: RequestStats{
			Completed: s.completed.Load(),
			Failed:    s.failed.Load(),
			Timeouts:  s.timeouts.Load(),
			Canceled:  s.canceled.Load(),
		},
		Solver: SolverStats{
			LPSolves:               s.lpSolves.Load(),
			SimplexPivots:          s.simplexPivots.Load(),
			WarmStarts:             s.warmStarts.Load(),
			EtaUpdates:             s.etaUpdates.Load(),
			Refactorizations:       s.refactors.Load(),
			SparseRefactorizations: s.refactors.Load(),
			FillIn:                 s.fillIn.Load(),
			BasisNonzeros:          s.basisNnz.Load(),
			WorkspaceReuses:        s.wsReuses.Load(),
			CutsAdded:              s.cutsAdded.Load(),
			CutRounds:              s.cutRounds.Load(),
			NodesPresolved:         s.nodesPresolve.Load(),
			BoundsTightened:        s.boundsTight.Load(),
			Branchings:             s.branchings.Load(),
			DeltaWarmStarts:        s.deltaWarms.Load(),
			DeltaFallbacks:         s.deltaFBs.Load(),
			IncumbentFromHint:      s.incFromHint.Load(),
		},
		Cache: s.cache.stats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleFormats(w http.ResponseWriter, r *http.Request) {
	type fj struct {
		Name    string   `json:"name"`
		MIME    string   `json:"mime"`
		Aliases []string `json:"aliases,omitempty"`
	}
	var out []fj
	for _, f := range export.Formats() {
		out = append(out, fj{Name: f.Name, MIME: f.MIME, Aliases: f.Aliases})
	}
	writeJSON(w, http.StatusOK, out)
}

// chooseFormat resolves the response format: an explicit ?format= wins,
// otherwise the Accept header is negotiated against the registry, and
// an absent or fully wildcarded preference defaults to JSON.
func chooseFormat(formatParam, accept string) (export.Format, int, error) {
	if formatParam != "" {
		f, ok := export.Lookup(formatParam)
		if !ok {
			return f, http.StatusBadRequest, fmt.Errorf(
				"unknown format %q (want one of %s)", formatParam, strings.Join(export.Names(), ", "))
		}
		return f, 0, nil
	}
	if a := strings.TrimSpace(accept); a == "" || a == "*/*" {
		f, _ := export.Lookup("json")
		return f, 0, nil
	}
	f, ok := export.Negotiate(accept)
	if !ok {
		return f, http.StatusNotAcceptable, fmt.Errorf(
			"no acceptable format for %q (available: %s)", accept, strings.Join(export.Names(), ", "))
	}
	return f, 0, nil
}

// render writes the design in the negotiated format. The body is
// buffered first so a writer error can still become a clean 500 instead
// of a torn 200.
func (s *Server) render(w http.ResponseWriter, fm export.Format, res *core.Result, key cacheKey, cache string) {
	var buf bytes.Buffer
	if err := fm.Write(&buf, res.Design, res.Plan); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusInternalServerError,
			errDoc(CodeRender, fmt.Sprintf("rendering %s: %v", fm.Name, err)))
		return
	}
	h := w.Header()
	h.Set("Content-Type", fm.MIME)
	h.Set("X-Columbas-Cache", cache)
	h.Set("X-Columbas-Key", key.String())
	h.Set("X-Columbas-Runtime", res.Runtime.String())
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// emitHitTrace records a cache hit as a single-span trace (the
// "surfaced through the obs trace" contract for requests that never
// reach the pipeline).
func (s *Server) emitHitTrace(name string) {
	if s.cfg.TraceSink == nil {
		return
	}
	tr := obs.New(name)
	sp := tr.Phase("cache")
	sp.Label("result", "hit")
	cs := s.cache.stats()
	sp.SetInt("hits", cs.Hits)
	sp.SetInt("misses", cs.Misses)
	sp.SetInt("evictions", cs.Evictions)
	sp.End()
	s.emitTrace(tr)
}

// emitTrace finishes tr and appends it to the trace sink as one compact
// columbas-trace/v1 JSON line. No-op on a nil trace or sink.
func (s *Server) emitTrace(tr *obs.Trace) {
	if tr == nil || s.cfg.TraceSink == nil {
		return
	}
	tr.Finish()
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	json.NewEncoder(s.cfg.TraceSink).Encode(tr.Snapshot())
}
