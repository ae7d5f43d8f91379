package columbas

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"columbas/internal/core"
	"columbas/internal/gen"
	"columbas/internal/milp"
	"columbas/internal/netlist"
)

// conformanceSeeds is the size of the randomized synthesis sweep: every
// seed's netlist must either be rejected with a typed *core.SynthesisError
// or synthesize into a design with zero DRC violations. Nothing in
// between — an untyped error or a dirty design is a pipeline bug.
const conformanceSeeds = 200

func conformanceOpts() core.Options {
	opt := core.DefaultOptions()
	// The property under test is validity (typed rejection or DRC-clean
	// design), not layout quality, so keep the solver budget tight: on
	// timeout the pipeline degrades to the greedy seed layout, which
	// still flows through validation and DRC.
	opt.Layout.TimeLimit = 5 * time.Second
	opt.Layout.StallLimit = 20
	opt.Layout.Gap = 0.25
	// Two solver workers per synthesis; the suite itself fans out, so
	// wider pools would just oversubscribe the machine.
	opt.Layout.Workers = 2
	return opt
}

func TestSynthesisConformance(t *testing.T) {
	seeds := conformanceSeeds
	if testing.Short() {
		seeds = 25
	}
	// Bound the fan-out so -race runs don't oversubscribe the machine:
	// each synthesis already runs a worker pool of its own.
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for seed := int64(0); seed < int64(seeds); seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			n := gen.Generate(seed)
			res, err := core.Synthesize(n, conformanceOpts())
			if err != nil {
				var serr *core.SynthesisError
				if !errors.As(err, &serr) {
					t.Errorf("seed %d: untyped synthesis error: %v\n%s", seed, err, n.Format())
				}
				return
			}
			if res.DRC == nil {
				t.Errorf("seed %d: synthesis succeeded without a DRC report", seed)
				return
			}
			if !res.DRC.Clean() {
				t.Errorf("seed %d: %d DRC violation(s); first: %v\n%s",
					seed, len(res.DRC.Violations), res.DRC.Violations[0], n.Format())
			}
		}(seed)
	}
	wg.Wait()
}

// The warm-started and cold solver paths must be interchangeable at the
// pipeline level: same verdict (typed rejection vs clean design) for the
// same netlist.
func TestSynthesisConformanceWarmColdAgree(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		n := gen.Generate(seed)
		warm, warmErr := core.Synthesize(n, conformanceOpts())
		coldOpt := conformanceOpts()
		coldOpt.Layout.NoWarmStart = true
		cold, coldErr := core.Synthesize(n, coldOpt)
		if (warmErr == nil) != (coldErr == nil) {
			t.Errorf("seed %d: warm err=%v, cold err=%v", seed, warmErr, coldErr)
			continue
		}
		if warmErr == nil && (!warm.DRC.Clean() || !cold.DRC.Clean()) {
			t.Errorf("seed %d: DRC disagreement warm=%v cold=%v",
				seed, warm.DRC.Clean(), cold.DRC.Clean())
		}
	}
}

// The delta-aware warm-start pipeline must be invisible at the pipeline
// level: re-synthesizing an edit-sequence chain with each step chaining
// a warm hint from its predecessor reaches the same verdict (typed
// rejection vs clean design) and the same objective, within the
// optimality gap, as solving every step cold under -no-delta. A hint
// that steered the search into excluding the optimum — a poisoned
// incumbent, a stale pair set tightening the model, a corrupt root basis
// — would surface here as a verdict flip or an objective drift no gap
// explains.
func TestSynthesisConformanceDeltaWarmAgree(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	const steps = 5
	// The property under test is verdict parity, and the budget applies to
	// both sides of every step equally, so a tighter budget than the other
	// conformance sweeps keeps the 20×5 matrix affordable without
	// weakening the comparison.
	deltaOpts := func() core.Options {
		opt := conformanceOpts()
		opt.Layout.TimeLimit = 3 * time.Second
		opt.Layout.StallLimit = 12
		return opt
	}
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for seed := int64(0); seed < int64(seeds); seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			chain := gen.EditSequence(seed, steps)
			var prev *core.Result
			for i, n := range chain {
				coldOpt := deltaOpts()
				coldOpt.NoDelta = true
				cold, coldErr := core.Synthesize(n, coldOpt)
				// Step 0 has no donor, so the warm side is the cold side by
				// construction — don't pay for the same solve twice.
				warm, warmErr := cold, coldErr
				warmOpt := deltaOpts()
				if prev != nil {
					warmOpt.Warm = prev.WarmHint()
					warm, warmErr = core.Synthesize(n, warmOpt)
				}
				if (warmErr == nil) != (coldErr == nil) {
					t.Errorf("seed %d step %d: warm err=%v, cold err=%v", seed, i, warmErr, coldErr)
					return
				}
				if warmErr != nil {
					var serr *core.SynthesisError
					if !errors.As(warmErr, &serr) {
						t.Errorf("seed %d step %d: untyped synthesis error: %v", seed, i, warmErr)
					}
					prev = nil
					continue
				}
				if warm.DRC.Clean() != cold.DRC.Clean() {
					t.Errorf("seed %d step %d: DRC disagreement warm=%v cold=%v\n%s",
						seed, i, warm.DRC.Clean(), cold.DRC.Clean(), n.Format())
				}
				// When both sides proved optimality, their objectives must
				// agree within the combined gap slack (each stop is within
				// Gap of the true optimum).
				ws, cs := warm.Plan.Stats, cold.Plan.Stats
				if ws.Status == milp.Optimal && cs.Status == milp.Optimal {
					tol := 2*warmOpt.Layout.Gap*math.Max(math.Abs(ws.Obj), math.Abs(cs.Obj)) + 1e-6
					if diff := math.Abs(ws.Obj - cs.Obj); diff > tol {
						t.Errorf("seed %d step %d: objective drift warm=%g cold=%g (tol %g)\n%s",
							seed, i, ws.Obj, cs.Obj, tol, n.Format())
					}
				}
				prev = warm
			}
		}(seed)
	}
	wg.Wait()
}

// Presolve on and off must be interchangeable at the pipeline level:
// for the same netlist, both cells reach the same verdict (typed
// rejection vs clean design). Objectives may differ — the lazy
// separation loop legitimately takes different trajectories when the
// tree changes shape — but validity never may: tightened bounds that
// excluded a feasible layout would surface here as a rejection or a
// dirty design the other cell doesn't produce. (The layout path runs
// without root cuts; the cuts × presolve matrix lives in internal/milp
// and the MPS corpus tier.)
func TestSynthesisConformancePresolveAgree(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		n := gen.Generate(seed)
		var refOK, refClean bool
		for i, noPresolve := range []bool{false, true} {
			opt := conformanceOpts()
			opt.Layout.NoPresolve = noPresolve
			res, err := core.Synthesize(n, opt)
			if err != nil {
				var serr *core.SynthesisError
				if !errors.As(err, &serr) {
					t.Errorf("seed %d nopresolve=%v: untyped synthesis error: %v", seed, noPresolve, err)
				}
			}
			ok := err == nil
			clean := ok && res.DRC != nil && res.DRC.Clean()
			if i == 0 {
				refOK, refClean = ok, clean
				continue
			}
			if ok != refOK || clean != refClean {
				t.Errorf("seed %d: presolve-off verdict (ok=%v clean=%v) disagrees with presolve-on (ok=%v clean=%v)",
					seed, ok, clean, refOK, refClean)
			}
		}
	}
}

// Every generated netlist and every netlist file shipped in examples/
// must survive a Format → Parse round trip unchanged.
func TestNetlistRoundTrip(t *testing.T) {
	seeds := int64(conformanceSeeds)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < seeds; seed++ {
		n := gen.Generate(seed)
		back, err := netlist.ParseString(n.Format())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if !reflect.DeepEqual(n, back) {
			t.Fatalf("seed %d: round trip changed the netlist", seed)
		}
	}

	files, err := filepath.Glob("examples/*/*.netlist")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example netlists found (err=%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, err := netlist.ParseString(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", f, err)
		}
		back, err := netlist.ParseString(n.Format())
		if err != nil {
			t.Fatalf("%s: reparse: %v", f, err)
		}
		if !reflect.DeepEqual(n, back) {
			t.Fatalf("%s: round trip changed the netlist", f)
		}
	}
}

// Guard against the conformance property degenerating into "everything is
// rejected": a healthy generator + pipeline must synthesize a solid
// majority of random netlists.
func TestConformanceMostlySynthesizable(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling test; skipped in -short")
	}
	const sample = 40
	ok := 0
	for seed := int64(0); seed < sample; seed++ {
		if _, err := core.Synthesize(gen.Generate(seed), conformanceOpts()); err == nil {
			ok++
		}
	}
	if ok < sample/2 {
		t.Fatalf("only %d/%d random netlists synthesized; generator or pipeline regressed", ok, sample)
	}
	t.Logf("%d/%d random netlists synthesized cleanly", ok, sample)
}
