package obs

import (
	"encoding/json"
	"io"
	"time"
)

// SchemaVersion identifies the trace-JSON document layout. Consumers
// should check it before interpreting the rest of the document; the suffix
// is bumped on any incompatible field change. The full schema is
// documented in docs/metrics.md.
const SchemaVersion = "columbas-trace/v1"

// TraceJSON is the machine-readable snapshot of a Trace — the exact
// document written by `columbas -trace-json` and embedded per run in
// benchtab's -json report. Unmarshalling a trace document into this
// struct and re-marshalling it is lossless (the golden round-trip test in
// obs_test.go pins this).
type TraceJSON struct {
	// Schema is always SchemaVersion for documents this package writes.
	Schema string `json:"schema"`
	// Name identifies the traced run (typically the design name).
	Name string `json:"name"`
	// WallMS is the total wall-clock time of the run in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Spans are the top-level phases in execution order.
	Spans []SpanJSON `json:"spans,omitempty"`
}

// SpanJSON is one phase of a TraceJSON document.
type SpanJSON struct {
	// Name is the phase name (e.g. "layout", "milp round 1").
	Name string `json:"name"`
	// WallMS is the phase's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Counters are the phase's numeric measurements, keyed by the counter
	// names documented in docs/metrics.md.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Labels are string-valued annotations (e.g. "status": "optimal").
	Labels map[string]string `json:"labels,omitempty"`
	// Spans are nested sub-phases in execution order.
	Spans []SpanJSON `json:"spans,omitempty"`
}

// ms converts a duration to milliseconds with microsecond resolution, so
// snapshots are compact and stable to format.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// Snapshot converts the trace's current state into its JSON schema form.
// Nil traces snapshot to nil.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := &TraceJSON{
		Schema: SchemaVersion,
		Name:   t.name,
		WallMS: ms(t.wallLocked()),
	}
	for _, s := range t.spans {
		doc.Spans = append(doc.Spans, s.snapshotLocked())
	}
	return doc
}

func (s *Span) snapshotLocked() SpanJSON {
	j := s.ownSnapshotLocked()
	for _, c := range s.children {
		j.Spans = append(j.Spans, c.snapshotLocked())
	}
	return j
}

// ownSnapshotLocked copies the span's own wall time, counters and
// labels, without its children.
func (s *Span) ownSnapshotLocked() SpanJSON {
	wall := s.end.Sub(s.start)
	if s.end.IsZero() {
		wall = time.Since(s.start)
	}
	j := SpanJSON{Name: s.name, WallMS: ms(wall)}
	if len(s.counters) > 0 {
		j.Counters = make(map[string]float64, len(s.counters))
		for k, v := range s.counters {
			j.Counters[k] = v
		}
	}
	if len(s.labels) > 0 {
		j.Labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			j.Labels[k] = v
		}
	}
	return j
}

// WriteJSON writes the trace snapshot as indented JSON. A nil trace
// writes "null".
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
