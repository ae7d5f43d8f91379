package obs

import (
	"sort"
	"sync"
	"time"
)

// Trace records one run of the synthesis pipeline as a tree of phase
// spans. A nil *Trace is a valid, fully disabled trace: every method is a
// no-op and returns a nil *Span whose methods are in turn no-ops, so
// instrumented code needs no enabled-checks and pays only a nil test on
// the disabled path.
type Trace struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	spans    []*Span
	observer Observer
}

// Span is one phase (or sub-phase) of a traced run: a name, a wall-clock
// interval, ordered child spans and a set of named counters and labels.
type Span struct {
	tr       *Trace
	name     string
	path     string // slash-joined ancestry, e.g. "layout/milp round 1"
	start    time.Time
	end      time.Time
	counters map[string]float64
	labels   map[string]string
	children []*Span
}

// New starts a trace for a pipeline run identified by name (typically the
// design name).
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// SetName renames the trace. Commands that start tracing before they know
// the design name (the name only exists after parsing) rename here.
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.name = name
	t.mu.Unlock()
}

// Name returns the trace's run identifier ("" on a nil trace).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Phase opens a new top-level span. The caller must End it; phases are
// expected to be sequential, but opening spans from multiple goroutines is
// safe.
func (t *Trace) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, path: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	obs := t.observer
	t.mu.Unlock()
	if obs != nil {
		obs(Event{Kind: EventSpanStart, Path: s.path})
	}
	return s
}

// Finish seals the trace's total wall time. Optional: an unfinished trace
// reports wall time up to the moment it is rendered.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	sealed := false
	if t.end.IsZero() {
		t.end = time.Now()
		sealed = true
	}
	wall := t.wallLocked()
	obs := t.observer
	t.mu.Unlock()
	if sealed && obs != nil {
		obs(Event{Kind: EventTraceFinish, WallMS: ms(wall)})
	}
}

// Wall returns the trace's total wall-clock time so far (0 on nil).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wallLocked()
}

func (t *Trace) wallLocked() time.Duration {
	if t.end.IsZero() {
		return time.Since(t.start)
	}
	return t.end.Sub(t.start)
}

// Child opens a nested span under s. Safe on a nil span (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, path: s.path + "/" + name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	obs := s.tr.observer
	s.tr.mu.Unlock()
	if obs != nil {
		obs(Event{Kind: EventSpanStart, Path: c.path})
	}
	return c
}

// End seals the span's wall-clock interval. Ending twice keeps the first
// end time (and emits no second event).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	sealed := false
	if s.end.IsZero() {
		s.end = time.Now()
		sealed = true
	}
	obs := s.tr.observer
	var snap SpanJSON
	if sealed && obs != nil {
		// The span's own data only: child spans emit their own events.
		snap = s.ownSnapshotLocked()
	}
	s.tr.mu.Unlock()
	if sealed && obs != nil {
		obs(Event{Kind: EventSpanEnd, Path: s.path, WallMS: snap.WallMS, Span: &snap})
	}
}

// Elapsed returns the span's wall time: up to now while open, the sealed
// interval after End.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Set records counter name = v on the span, replacing any prior value.
func (s *Span) Set(name string, v float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]float64)
	}
	s.counters[name] = v
	s.tr.mu.Unlock()
}

// SetInt records an integer-valued counter.
func (s *Span) SetInt(name string, v int64) { s.Set(name, float64(v)) }

// Add increments counter name by v, creating it at v when absent.
func (s *Span) Add(name string, v float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]float64)
	}
	s.counters[name] += v
	s.tr.mu.Unlock()
}

// Label attaches a string-valued annotation (e.g. a solver status) to the
// span.
func (s *Span) Label(name, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string)
	}
	s.labels[name] = value
	s.tr.mu.Unlock()
}

// Counter returns the span's counter value and whether it is set.
func (s *Span) Counter(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	v, ok := s.counters[name]
	return v, ok
}

// counterKeys returns the span's counter names sorted; callers hold tr.mu.
func (s *Span) counterKeysLocked() []string {
	keys := make([]string, 0, len(s.counters))
	for k := range s.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Span) labelKeysLocked() []string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
