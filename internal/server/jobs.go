package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"columbas/internal/core"
	"columbas/internal/layout"
	"columbas/internal/netlist"
	"columbas/internal/obs"
)

// Schemas of the v2 job wire documents.
const (
	// JobSchema identifies the job resource (GET /v2/jobs/{id}).
	JobSchema = "columbas-job/v1"
	// JobEventSchema identifies one progress event on the SSE stream
	// (GET /v2/jobs/{id}/events).
	JobEventSchema = "columbas-jobevent/v1"
)

// JobState is the lifecycle position of a job resource.
type JobState string

// The job lifecycle: queued → running → one of the three terminal
// states. Cache hits jump straight from queued to succeeded.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final: the result (or error) is
// sealed and the event stream has ended.
func (st JobState) Terminal() bool {
	return st == JobSucceeded || st == JobFailed || st == JobCanceled
}

// JobEvent is one columbas-jobevent/v1 document: a line on a job's SSE
// progress stream. Type "state" marks a lifecycle transition;
// "span-start"/"span-end" relay the synthesis pipeline's obs phase
// spans (planarize → layout → milp rounds → validate → drc) live, with
// the span's counters and labels attached on end.
type JobEvent struct {
	Schema string `json:"schema"`
	// Job is the owning job id; Seq is the event's position in the
	// stream (also the SSE id: field, so Last-Event-ID resume works).
	Job string `json:"job"`
	Seq int64  `json:"seq"`
	// Type is "state", "span-start" or "span-end".
	Type string `json:"type"`
	// State is set on "state" events.
	State JobState `json:"state,omitempty"`
	// Cache marks the terminal state event "hit" or "miss".
	Cache string `json:"cache,omitempty"`
	// Path is the slash-joined span ancestry on span events
	// ("layout", "layout/milp round 2").
	Path string `json:"path,omitempty"`
	// WallMS is the sealed span wall time on "span-end".
	WallMS float64 `json:"wall_ms,omitempty"`
	// Counters and Labels are the ended span's recorded values (the
	// metric names of docs/metrics.md).
	Counters map[string]float64 `json:"counters,omitempty"`
	Labels   map[string]string  `json:"labels,omitempty"`
	// Error is set on a terminal "state" event of a failed job.
	Error *ErrorDoc `json:"error,omitempty"`
}

// maxReplayEvents bounds a job's event replay buffer; past it the
// oldest events are dropped (late subscribers see a seq gap, exactly as
// an SSE reconnect would).
const maxReplayEvents = 1024

// eventHub fans a job's events out to any number of SSE subscribers
// and replays the backlog to late ones. Publishing never blocks: a
// subscriber that cannot keep up loses events (each carries Seq, so
// the gap is visible), and publishing to a closed hub is a no-op.
type eventHub struct {
	jobID string

	mu      sync.Mutex
	seq     int64
	events  []JobEvent
	subs    map[int]chan JobEvent
	nextSub int
	closed  bool
}

func newEventHub(jobID string) *eventHub {
	return &eventHub{jobID: jobID, subs: make(map[int]chan JobEvent)}
}

// publish stamps schema/job/seq onto ev, records it for replay and
// fans it out.
func (h *eventHub) publish(ev JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Schema = JobEventSchema
	ev.Job = h.jobID
	ev.Seq = h.seq
	h.events = append(h.events, ev)
	if len(h.events) > maxReplayEvents {
		h.events = h.events[len(h.events)-maxReplayEvents:]
	}
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, the seq gap tells the story
		}
	}
}

// subscribe returns the replay backlog plus a live channel. The
// channel is closed when the job reaches a terminal state (the last
// replayed or delivered event is that terminal "state" event). cancel
// detaches the subscriber; it is safe to call after close.
func (h *eventHub) subscribe() (replay []JobEvent, ch chan JobEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([]JobEvent(nil), h.events...)
	ch = make(chan JobEvent, 128)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := h.nextSub
	h.nextSub++
	h.subs[id] = ch
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}

// close seals the stream: subscriber channels are closed and further
// publishes are dropped. The backlog is final from here on and stays
// for replay until the job expires, so it is copied down to its length:
// append growth leaves it a third empty on average.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.events = append([]JobEvent(nil), h.events...)
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}

// traceObserver adapts the hub into an obs.Observer: live pipeline
// spans become span-start/span-end job events. The trace-finish event
// is skipped — the job's own terminal state event ends the stream.
func (h *eventHub) traceObserver() obs.Observer {
	return func(ev obs.Event) {
		switch ev.Kind {
		case obs.EventSpanStart:
			h.publish(JobEvent{Type: "span-start", Path: ev.Path})
		case obs.EventSpanEnd:
			je := JobEvent{Type: "span-end", Path: ev.Path, WallMS: ev.WallMS}
			if ev.Span != nil {
				je.Counters = ev.Span.Counters
				je.Labels = ev.Span.Labels
			}
			h.publish(je)
		}
	}
}

// job is one synthesis job resource. Immutable identity fields are set
// at submit; the mutable lifecycle lives behind mu.
type job struct {
	id      string
	created time.Time
	name    string // design name
	key     cacheKey
	fp      *designFP    // similarity fingerprint (nil: caching disabled)
	opt     core.Options // resolved options (Trace stripped)
	timeout time.Duration
	format  string // default render format ("" = negotiate per GET)
	cancel  context.CancelFunc
	done    chan struct{} // closed when the job reaches a terminal state
	hub     *eventHub

	mu        sync.Mutex
	state     JobState
	cacheHit  bool
	res       *core.Result
	errStatus int
	errDoc    *ErrorDoc
	started   time.Time
	finished  time.Time
	expires   time.Time
}

// newJobID returns a 16-hex-char random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// publishState emits a lifecycle transition on the event stream.
func (j *job) publishState(st JobState) {
	j.hub.publish(JobEvent{Type: "state", State: st})
}

// setRunning marks the moment the job took a pool slot.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publishState(JobRunning)
}

// finalize seals the job in a terminal state, publishes the terminal
// event, ends the stream and wakes synchronous waiters. ttl <= 0 keeps
// the job retrievable forever. The donor hint is dropped here: solve
// has already copied the options it ran with, and a hint built by
// Result.WarmHint is the job's private copy, which would otherwise live
// until the TTL expires.
func (j *job) finalize(st JobState, res *core.Result, errStatus int, errDoc *ErrorDoc, ttl time.Duration) {
	now := time.Now()
	j.mu.Lock()
	j.state = st
	j.res = res
	j.errStatus = errStatus
	j.errDoc = errDoc
	j.finished = now
	j.opt.Warm = nil
	if ttl > 0 {
		j.expires = now.Add(ttl)
	}
	cache := "miss"
	if j.cacheHit {
		cache = "hit"
	}
	j.mu.Unlock()
	ev := JobEvent{Type: "state", State: st, Error: errDoc}
	if st == JobSucceeded {
		ev.Cache = cache
	}
	j.hub.publish(ev)
	j.hub.close()
	close(j.done)
}

// cancelJob requests cancellation. Idempotent, and a no-op on jobs
// that never got a cancelable context (cache hits).
func (j *job) cancelJob() {
	if j.cancel != nil {
		j.cancel()
	}
}

// outcome snapshots the terminal result for a synchronous waiter.
func (j *job) outcome() (st JobState, res *core.Result, errStatus int, errDoc *ErrorDoc, cache string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cache = "miss"
	if j.cacheHit {
		cache = "hit"
	}
	return j.state, j.res, j.errStatus, j.errDoc, cache
}

// expired reports whether the job's retention window has passed.
func (j *job) expired(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.expires.IsZero() && now.After(j.expires)
}

// JobDoc is the columbas-job/v1 resource document.
type JobDoc struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Name is the design name from the submitted netlist.
	Name  string   `json:"name"`
	State JobState `json:"state"`
	// Cache is "hit" or "miss" once the job succeeded.
	Cache string `json:"cache,omitempty"`
	// Key is the content address shared with the X-Columbas-Key header.
	Key       string     `json:"key,omitempty"`
	CreatedAt time.Time  `json:"created_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	// FinishedAt and ExpiresAt bound the result's availability: after
	// ExpiresAt the job id answers 404 (job_not_found).
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	ExpiresAt  *time.Time `json:"expires_at,omitempty"`
	// Options is the fully resolved option set the job ran (or will
	// run) with — server defaults and clamps applied.
	Options core.Options `json:"options"`
	// Timeout is the job's wall-clock deadline budget ("" = none).
	Timeout string `json:"timeout,omitempty"`
	// Metrics is set once the job succeeded.
	Metrics *core.Metrics `json:"metrics,omitempty"`
	// Error is set once the job failed or was canceled.
	Error *ErrorDoc `json:"error,omitempty"`
	// Links names the job's subresources (self, events, result).
	Links map[string]string `json:"links"`
}

// doc snapshots the job as its wire resource.
func (j *job) doc() JobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := JobDoc{
		Schema:    JobSchema,
		ID:        j.id,
		Name:      j.name,
		State:     j.state,
		Key:       j.key.String(),
		CreatedAt: j.created,
		Options:   j.opt,
		Links: map[string]string{
			"self":   "/v2/jobs/" + j.id,
			"events": "/v2/jobs/" + j.id + "/events",
			"result": "/v2/jobs/" + j.id + "/result",
		},
	}
	if j.timeout > 0 {
		d.Timeout = j.timeout.String()
	}
	if !j.started.IsZero() {
		t := j.started
		d.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.FinishedAt = &t
	}
	if !j.expires.IsZero() {
		t := j.expires
		d.ExpiresAt = &t
	}
	if j.state == JobSucceeded {
		if j.cacheHit {
			d.Cache = "hit"
		} else {
			d.Cache = "miss"
		}
		if j.res != nil {
			m := j.res.Metrics()
			d.Metrics = &m
		}
	}
	d.Error = j.errDoc
	return d
}

// jobStore indexes live job resources by id and garbage-collects
// terminal ones past their TTL. Collection is opportunistic — a sweep
// piggybacks on store accesses at most every ttl/4 — so the store
// needs no background goroutine and leaks none.
type jobStore struct {
	ttl time.Duration // <= 0: jobs are retained until process exit

	mu        sync.Mutex
	byID      map[string]*job
	lastSweep time.Time
	submitted int64
	expired   int64
}

func newJobStore(ttl time.Duration) *jobStore {
	return &jobStore{ttl: ttl, byID: make(map[string]*job)}
}

func (st *jobStore) add(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(time.Now())
	st.byID[j.id] = j
	st.submitted++
}

// get returns the live job for id. An expired job is indistinguishable
// from one that never existed.
func (st *jobStore) get(id string) (*job, bool) {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(now)
	j, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	if j.expired(now) {
		delete(st.byID, id)
		st.expired++
		return nil, false
	}
	return j, true
}

// sweepLocked drops every expired job, at most once per ttl/4.
func (st *jobStore) sweepLocked(now time.Time) {
	if st.ttl <= 0 {
		return
	}
	if !st.lastSweep.IsZero() && now.Sub(st.lastSweep) < st.ttl/4 {
		return
	}
	st.lastSweep = now
	for id, j := range st.byID {
		if j.expired(now) {
			delete(st.byID, id)
			st.expired++
		}
	}
}

// JobStats is the job-store block of GET /v1/stats.
type JobStats struct {
	// TTLMS is the terminal-job retention window (0: forever).
	TTLMS int64 `json:"ttl_ms"`
	// Stored is the number of job resources currently retrievable.
	Stored int `json:"stored"`
	// Submitted counts jobs accepted since start (sync and async,
	// cache hits included); Expired counts jobs dropped by the TTL.
	Submitted int64 `json:"submitted"`
	Expired   int64 `json:"expired"`
}

func (st *jobStore) stats() JobStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	ttlMS := int64(0)
	if st.ttl > 0 {
		ttlMS = st.ttl.Milliseconds()
	}
	return JobStats{
		TTLMS:     ttlMS,
		Stored:    len(st.byID),
		Submitted: st.submitted,
		Expired:   st.expired,
	}
}

// errDraining is submit's refusal while the server drains.
var errDraining = errors.New("server is draining")

// submitRequest is a fully validated synthesis request: parsed
// netlist, resolved options, deadline budget.
type submitRequest struct {
	n       *netlist.Netlist
	opt     core.Options
	timeout time.Duration
	format  string // default render format for the job resource
	// warm pins an explicit donor hint (the /v2/explore chain); when nil
	// and the options allow delta warm starts, submit consults the
	// similarity index instead.
	warm *layout.WarmHint
}

// submit runs a validated request through cache lookup and admission
// control and, on a miss, spawns its job goroutine. It returns the job
// resource, or a Retry-After hint with errDraining, errQueueFull or
// errDoomedDeadline. Both the async POST /v2/jobs handler and the
// synchronous /v1/synthesize wrapper go through here — there is
// exactly one synthesis path.
func (s *Server) submit(req submitRequest) (*job, time.Duration, error) {
	if s.draining.Load() {
		return nil, drainRetryAfter, errDraining
	}
	j := &job{
		id:      newJobID(),
		created: time.Now(),
		name:    req.n.Name,
		key:     newCacheKey(req.n, req.opt),
		opt:     req.opt,
		timeout: req.timeout,
		format:  req.format,
		done:    make(chan struct{}),
	}
	j.hub = newEventHub(j.id)
	j.state = JobQueued
	j.publishState(JobQueued)

	if res, ok := s.cache.get(j.key); ok {
		// Cache hits bypass admission entirely: no queue slot, no pool
		// token, the job is born terminal.
		j.cacheHit = true
		s.completed.Add(1)
		s.emitHitTrace(req.n.Name)
		s.jobs.add(j)
		j.finalize(JobSucceeded, res, 0, nil, s.cfg.JobTTL)
		return j, 0, nil
	}
	j.fp = newDesignFP(req.n, req.opt)

	// Exact miss: a near miss can still warm-start. An explicit donor
	// (the /v2/explore chain) wins; otherwise the similarity index is
	// consulted for the nearest previously solved design. -no-delta
	// requests skip both and solve cold.
	if !req.opt.NoDelta {
		if req.warm != nil {
			j.opt.Warm = req.warm
		} else if donor := s.cache.similar(j.fp); donor != nil {
			j.opt.Warm = donor.WarmHint()
		}
	}

	var deadline time.Time
	if req.timeout > 0 {
		deadline = j.created.Add(req.timeout)
	}
	if wait, err := s.adm.admit(deadline); err != nil {
		return nil, wait, err
	}

	// The job's context is rooted in Background, not in any request:
	// the submitting connection may hang up while the job lives on.
	// Cancellation comes from DELETE (or the v1 wrapper's disconnect),
	// the deadline from the job's own timeout budget.
	ctx := context.Background()
	var cancel context.CancelFunc
	if req.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	s.jobs.add(j)
	s.jobsWG.Add(1)
	go s.runJob(ctx, cancel, j, req.n)
	return j, 0, nil
}

// runJob drives one admitted job to a terminal state and settles the
// request counters. It is the only goroutine that touches the pool
// semaphore and the solver-stat accumulators, for v1 and v2 alike.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, n *netlist.Netlist) {
	defer s.jobsWG.Done()
	defer cancel()
	res, err := s.solve(ctx, j, n)
	if err == nil {
		s.completed.Add(1)
		s.recordSolverStats(res)
		s.cache.add(j.key, j.fp, res)
		j.finalize(JobSucceeded, res, 0, nil, s.cfg.JobTTL)
		return
	}
	st := JobFailed
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		st = JobCanceled
	default:
		s.failed.Add(1)
	}
	status, doc := synthesisErrorDoc(err, res)
	j.finalize(st, nil, status, doc, s.cfg.JobTTL)
}

// solve waits for a pool token and runs the synthesis pipeline with
// live tracing wired to the job's event hub. By the time it returns,
// the pool token is released and active is back down — a synchronous
// waiter observing the terminal state sees a fully drained pool.
func (s *Server) solve(ctx context.Context, j *job, n *netlist.Netlist) (*core.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.adm.abandoned()
		return nil, fmt.Errorf("queued: %w", ctx.Err())
	}
	defer func() { <-s.sem }()
	s.adm.started()
	a := s.active.Add(1)
	s.mu.Lock()
	if a > s.activeHW {
		s.activeHW = a
	}
	s.mu.Unlock()
	defer s.active.Add(-1)
	if s.testHold != nil {
		s.testHold(ctx)
	}

	j.setRunning()
	tr := obs.New(n.Name)
	tr.Observe(j.hub.traceObserver())
	sp := tr.Phase("cache")
	sp.Label("result", "miss")
	if j.opt.Warm != nil {
		sp.Label("delta", "warm")
	}
	cs := s.cache.stats()
	sp.SetInt("hits", cs.Hits)
	sp.SetInt("misses", cs.Misses)
	sp.SetInt("evictions", cs.Evictions)
	sp.End()
	opt := j.opt
	opt.Trace = tr

	svc := time.Now()
	res, err := core.SynthesizeContext(ctx, n, opt)
	s.adm.finished(time.Since(svc))
	tr.Finish()
	s.emitTrace(tr)
	return res, err
}
