package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"columbas/internal/cases"
	"columbas/internal/layout"
	"columbas/internal/netlist"
)

func mustParse(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSynthesizeContextCancelBeforeStart: an already-canceled context
// fails fast with the context error in the chain.
func TestSynthesizeContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeSourceContext(ctx, chainSrc, fastOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
}

// TestSynthesizeContextDeadlineCancelsSolver gives a bigger design a
// deadline far shorter than its solve time and checks (a) the error is
// context.DeadlineExceeded, (b) the call returns promptly — i.e. the
// deadline genuinely reached the branch-and-bound workers instead of
// letting them run out their 30 s budget. chip64 at 2-MUX and full
// effort does not settle before that budget, so the solve is still
// running when the deadline fires, however fast the solver is.
func TestSynthesizeContextDeadlineCancelsSolver(t *testing.T) {
	c, err := cases.Get("chip64")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithMuxes(2)
	opt := DefaultOptions()
	opt.Layout.TimeLimit = 30 * time.Second
	opt.Layout.Effort = layout.EffortFull
	opt.Layout.GuidedThreshold = 0
	opt.Layout.Gap = 0 // prove optimality: keeps the search running
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = SynthesizeSourceContext(ctx, c.Source, opt)
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("design solved inside the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; solver workers did not stop", elapsed)
	}
}

// TestSynthesizeDoesNotMutateOptions pins the immutability contract the
// server's content-addressed cache keying depends on: the Options value
// handed to SynthesizeContext — including its Layout sub-struct — must
// compare equal before and after the run, even with tracing attached.
func TestSynthesizeDoesNotMutateOptions(t *testing.T) {
	opt := fastOpts()
	want := opt
	r, err := SynthesizeContext(context.Background(), mustParse(t, chainSrc), opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt != want {
		t.Fatalf("Options mutated by synthesis:\n  before %+v\n  after  %+v", want, opt)
	}
	if opt.Layout.Obs != nil {
		t.Fatal("opt.Layout.Obs set on the caller's copy")
	}
	if r == nil || r.Design == nil {
		t.Fatal("no result")
	}
}

// TestContextAndPlainAgree: with no deadline pressure the context entry
// point and the classic wrapper produce byte-identical exports.
func TestContextAndPlainAgree(t *testing.T) {
	opt := fastOpts()
	opt.Layout.Workers = 1 // sequential: deterministic placement
	r1, err := SynthesizeSource(chainSrc, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SynthesizeSourceContext(context.Background(), chainSrc, opt)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := r1.Export(&b1, "svg"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Export(&b2, "svg"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("context and plain synthesis disagree on identical input")
	}
}

// TestResultExportUnknownFormat: the registry error names the valid set.
func TestResultExportUnknownFormat(t *testing.T) {
	r, err := SynthesizeSource(chainSrc, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Export(&buf, "pdf"); err == nil {
		t.Fatal("Export(pdf) should fail")
	}
}
