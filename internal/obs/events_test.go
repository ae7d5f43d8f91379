package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestObserveEventStream walks a small trace and checks the observer
// sees every span open and close, in order, with paths, counters and a
// final finish event.
func TestObserveEventStream(t *testing.T) {
	tr := New("run")
	var mu sync.Mutex
	var got []Event
	tr.Observe(func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})

	sp := tr.Phase("layout")
	child := sp.Child("milp round 1")
	child.SetInt("nodes", 7)
	child.End()
	child.End() // double End must not emit a second event
	sp.Label("status", "optimal")
	sp.End()
	tr.Finish()
	tr.Finish() // idempotent

	want := []struct {
		kind EventKind
		path string
	}{
		{EventSpanStart, "layout"},
		{EventSpanStart, "layout/milp round 1"},
		{EventSpanEnd, "layout/milp round 1"},
		{EventSpanEnd, "layout"},
		{EventTraceFinish, ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Path != w.path {
			t.Fatalf("event %d = {%v %q}, want {%v %q}", i, got[i].Kind, got[i].Path, w.kind, w.path)
		}
	}
	// Span-end events carry the span's own snapshot, children stripped.
	roundEnd := got[2]
	if roundEnd.Span == nil || roundEnd.Span.Counters["nodes"] != 7 {
		t.Fatalf("round end snapshot = %+v, want nodes=7", roundEnd.Span)
	}
	layoutEnd := got[3]
	if layoutEnd.Span == nil || layoutEnd.Span.Labels["status"] != "optimal" {
		t.Fatalf("layout end snapshot = %+v, want status label", layoutEnd.Span)
	}
	if layoutEnd.Span.Spans != nil {
		t.Fatal("span-end snapshot must not carry child spans")
	}
}

// TestSpanEndAllocsIgnoreChildren: the span-end event copies the ended
// span's own counters and labels only, so ending a parent allocates the
// same whether it holds no child or 16 children of 25 counters each.
func TestSpanEndAllocsIgnoreChildren(t *testing.T) {
	const runs = 50
	endAllocs := func(children int) float64 {
		tr := New("run")
		var last Event
		tr.Observe(func(ev Event) { last = ev })
		parents := make([]*Span, runs+1) // AllocsPerRun adds a warm-up call
		for i := range parents {
			parents[i] = tr.Phase("layout")
			parents[i].SetInt("nodes", 7)
			for c := 0; c < children; c++ {
				ch := parents[i].Child(fmt.Sprintf("round %d", c))
				for k := 0; k < 25; k++ {
					ch.SetInt(fmt.Sprintf("counter%d", k), int64(k))
				}
				ch.End()
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			parents[next].End()
			next++
		})
		if last.Kind != EventSpanEnd || last.Span == nil || last.Span.Counters["nodes"] != 7 || last.Span.Spans != nil {
			t.Fatalf("%d children: last event %+v, want the parent's own end snapshot", children, last)
		}
		return allocs
	}
	if bare, wide := endAllocs(0), endAllocs(16); wide != bare {
		t.Fatalf("End allocates %v times with 16 children, %v with none", wide, bare)
	}
}

// TestObserveNilSafe: Observe on a nil trace is a no-op, and a trace
// without an observer emits nothing (i.e. instrumentation cost is one
// nil check).
func TestObserveNilSafe(t *testing.T) {
	var nilTr *Trace
	nilTr.Observe(func(Event) { t.Fatal("observer on nil trace fired") })
	nilTr.Phase("p").End()

	tr := New("quiet")
	sp := tr.Phase("p")
	sp.End()
	tr.Observe(nil) // unregister is legal
	tr.Finish()
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventSpanStart:   "span-start",
		EventSpanEnd:     "span-end",
		EventTraceFinish: "finish",
		EventKind(42):    "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
