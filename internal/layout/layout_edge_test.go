package layout

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"columbas/internal/module"
	"columbas/internal/netlist"
	"columbas/internal/planar"
)

// Two independent components in a 2-MUX design should stack into two
// lanes: the chip narrows relative to the 1-MUX single-row layout, and
// the lanes' control channels exit through opposite boundaries — the
// Table 1 trade-off (2-MUX: narrower x, taller y, more inlets).
func TestTwoMuxLaneStacking(t *testing.T) {
	src := func(muxes string) string {
		return `
design lanes
muxes ` + muxes + `
unit m1 mixer
unit c1 chamber
unit m2 mixer
unit c2 chamber
connect in:a m1
connect m1 c1
connect c1 out:w1
connect in:b m2
connect m2 c2
connect c2 out:w2
`
	}
	o := fastOpts()
	o.SkipMILP = true // compare the constructive layouts directly
	p1 := plan(t, src("1"), o)
	p2 := plan(t, src("2"), o)
	if p2.XMax >= p1.XMax {
		t.Errorf("2-MUX should compress x: %v vs %v", p2.XMax, p1.XMax)
	}
	if p2.YMax <= p1.YMax {
		t.Errorf("2-MUX should grow y: %v vs %v", p2.YMax, p1.YMax)
	}
	checkPlanInvariants(t, p2)
}

// A fan of sources through one switch into a fan of sinks: switches must
// stretch over all incident rows and no rect may overlap.
func TestFanInFanOutThroughSwitch(t *testing.T) {
	p := plan(t, `
design fan
unit a1 mixer
unit a2 mixer
unit a3 mixer
unit b1 chamber
unit b2 chamber
connect in:x1 a1
connect in:x2 a2
connect in:x3 a3
net a1 a2 a3 b1 b2
connect b1 out:w1
connect b2 out:w2
`, fastOpts())
	checkPlanInvariants(t, p)
	sw := p.Rect("s1")
	if sw == nil {
		t.Fatal("switch missing")
	}
	if sw.SwitchNode.Junctions != 5 {
		t.Fatalf("junctions = %d, want 5", sw.SwitchNode.Junctions)
	}
}

// Chained switches: two multi-terminal nets sharing a unit force a
// switch-to-switch channel.
func TestSwitchToSwitchChannel(t *testing.T) {
	p := plan(t, `
design chainsw
unit a mixer
unit b mixer
unit c mixer
unit d mixer
net a b c
net c d out:w
connect in:x a
connect in:y b
connect in:z d
`, fastOpts())
	checkPlanInvariants(t, p)
	// c participates in both nets -> two switches exist, and c (degree 2)
	// bridges them.
	var switches int
	for _, r := range p.Rects {
		if r.Kind == RSwitch {
			switches++
		}
	}
	if switches != 2 {
		t.Fatalf("switches = %d, want 2", switches)
	}
}

// Rows of unequal composition inside one parallel group: the block must
// still build, with width = the widest chain.
func TestUnequalParallelRows(t *testing.T) {
	p := plan(t, `
design uneq
unit m1 mixer
unit c1 chamber
unit m2 mixer
connect in:a m1
connect m1 c1
connect in:b m2
net c1 m2 out:w
parallel m1 c1 m2
`, fastOpts())
	checkPlanInvariants(t, p)
	// Chains of unequal composition split into one block per signature (a
	// switch between two same-block units would make the x-order cyclic).
	b0, b1 := p.Rect("g0.0"), p.Rect("g0.1")
	if b0 == nil || b1 == nil {
		t.Fatal("partitioned blocks g0.0/g0.1 missing")
	}
	chainW := module.MixerW + 2*module.D + module.ChamberW
	if math.Abs(b0.Block.W-chainW) > 1 && math.Abs(b1.Block.W-chainW) > 1 {
		t.Fatalf("no block has the m+c chain width %v (%v, %v)", chainW, b0.Block.W, b1.Block.W)
	}
}

// Same-composition chains that a shared switch connects stage-by-stage
// must still merge per stage (the hls pipeline shape).
func TestSwitchSeparatedStagesMerge(t *testing.T) {
	p := plan(t, `
design stages
unit b1 mixer sieve
unit r1 chamber
unit b2 mixer sieve
unit r2 chamber
connect in:x1 b1
net in:y1 b1 r1
connect r1 out:p1
connect in:x2 b2
net in:y2 b2 r2
connect r2 out:p2
parallel b1 r1 b2 r2
`, fastOpts())
	checkPlanInvariants(t, p)
	var blocks int
	for _, r := range p.Rects {
		if r.Kind == RBlock {
			blocks++
			if len(r.Block.Units) != 2 {
				t.Errorf("block %s has %d units, want 2", r.Name, len(r.Block.Units))
			}
		}
	}
	if blocks != 2 {
		t.Fatalf("blocks = %d, want 2 (stage-wise merging)", blocks)
	}
}

// The greedy seed alone must satisfy all plan invariants on every corpus
// shape — it is the fallback of record when budgets expire.
func TestSeedInvariantsAcrossShapes(t *testing.T) {
	shapes := []string{
		`
design s1
unit a mixer
connect in:x a
connect a out:y
`,
		`
design s2
muxes 2
unit a mixer sieve
unit b chamber
unit c mixer celltrap
unit d chamber
connect in:x a
connect a b
connect in:y c
connect c d
net b d out:w
`,
		`
design s3
unit a mixer
unit b mixer
unit c mixer
unit d chamber
unit e chamber
unit f chamber
connect in:1 a
connect in:2 b
connect in:3 c
connect a d
connect b e
connect c f
net d e f out:w
`,
	}
	o := fastOpts()
	o.SkipMILP = true
	for i, src := range shapes {
		p := plan(t, src, o)
		checkPlanInvariants(t, p)
		_ = i
	}
}

// EagerSeparation must reach an overlap-free plan equivalent in validity
// to the lazy default, carrying every pairwise disjunction up front.
func TestEagerSeparationInvariants(t *testing.T) {
	// Two independent chains: their cross pairs are not chain-ordered, so
	// eager mode has real disjunctions to carry.
	const src = `
design eager
unit m1 mixer
unit c1 chamber
unit m2 mixer
unit c2 chamber
connect in:a m1
connect m1 c1
connect c1 out:w1
connect in:b m2
connect m2 c2
connect c2 out:w2
`
	o := fastOpts()
	o.EagerSeparation = true
	p := plan(t, src, o)
	checkPlanInvariants(t, p)
	if p.Stats.Binaries == 0 {
		t.Fatal("eager mode should carry disjunction binaries")
	}
	o.EagerSeparation = false
	lazy := plan(t, src, o)
	checkPlanInvariants(t, lazy)
	if lazy.Stats.Binaries > p.Stats.Binaries {
		t.Fatalf("lazy binaries %d exceed eager %d", lazy.Stats.Binaries, p.Stats.Binaries)
	}
}

// NoSeed still converges on a small model (cold-started search).
func TestNoSeedColdStart(t *testing.T) {
	o := fastOpts()
	o.NoSeed = true
	p := plan(t, chainSrc, o)
	checkPlanInvariants(t, p)
}

// Kappa sweep: a higher channel-length weight must not lengthen the
// total weighted channel length.
func TestKappaReducesChannelLength(t *testing.T) {
	oLow := fastOpts()
	oLow.Kappa = 0.0001
	oHigh := fastOpts()
	oHigh.Kappa = 2.0
	low := plan(t, chainSrc, oLow)
	high := plan(t, chainSrc, oHigh)
	if high.FlowLength() > low.FlowLength()+1 {
		t.Errorf("kappa=2 flow %v exceeds kappa≈0 flow %v", high.FlowLength(), low.FlowLength())
	}
}

// lateCtx is a context whose deadline has passed while its timer has
// not fired yet: Err is still nil. A real context is in this state for
// a moment after its deadline.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// GenerateContext must report a passed deadline as an error even when
// the context's timer has not fired yet: generation itself watches the
// wall clock and falls back to the seed, which must not pass for a
// result inside the deadline.
func TestGenerateContextPassedDeadline(t *testing.T) {
	n, err := netlist.ParseString(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := planar.Planarize(n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = GenerateContext(lateCtx{context.Background()}, pr, fastOpts())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
