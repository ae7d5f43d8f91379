package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"columbas/internal/cases"
	"columbas/internal/core"
	"columbas/internal/drc"
	"columbas/internal/export"
	"columbas/internal/gen"
	"columbas/internal/geom"
	"columbas/internal/layout"
	"columbas/internal/milp"
	"columbas/internal/netlist"
	"columbas/internal/planar"
	"columbas/internal/validate"
)

// setupRounds is how often a run repeats its set-up; setup_s is the
// median. Every round redoes the whole set-up from scratch.
const setupRounds = 5

// A job of a few tens of milliseconds runs inside one of the machine's
// speed phases, which last seconds, so one sample of it is noisy. Short
// designs therefore repeat within a pass until their samples cover
// minSample, at most maxRepeats times; the run reports medians.
const (
	minSample  = 500 * time.Millisecond
	maxRepeats = 25
)

// repeatsFor returns how often a design whose first job took wall runs
// per pass.
func repeatsFor(wall time.Duration) int {
	n := int((minSample + wall - 1) / max(wall, 1))
	return min(max(n, 1), maxRepeats)
}

// fingerprint is what must repeat exactly when an input is synthesized
// again under Workers=1: the solver's effort counters, the model's
// shape and the design's Table 1 metrics. It doubles as the source of
// the per-layer counters.
type fingerprint struct {
	Status                 string  `json:"status"`
	Interrupted            bool    `json:"interrupted"`
	Rows                   int     `json:"rows"`
	Binaries               int     `json:"binaries"`
	SepRounds              int     `json:"sep_rounds"`
	Nodes                  int64   `json:"nodes"`
	NodesCutoff            int64   `json:"nodes_cutoff"`
	LPSolves               int64   `json:"lp_solves"`
	Branchings             int64   `json:"branchings"`
	CutRounds              int64   `json:"cut_rounds"`
	CutsAdded              int64   `json:"cuts_added"`
	BoundsTightened        int64   `json:"bounds_tightened"`
	Pivots                 int64   `json:"pivots"`
	Refactorizations       int64   `json:"refactorizations"`
	SparseRefactorizations int64   `json:"sparse_refactorizations"`
	WorkspaceReuses        int64   `json:"workspace_reuses"`
	WarmStarts             int64   `json:"warm_starts"`
	WarmFallbacks          int64   `json:"warm_fallbacks"`
	Phase1Rows             int64   `json:"phase1_rows"`
	BasisNonzeros          int64   `json:"basis_nonzeros"`
	FillIn                 int64   `json:"fill_in"`
	Channels               int     `json:"channels"`
	Valves                 int     `json:"valves"`
	SCRBytes               int     `json:"scr_bytes"`
	AreaMM2                float64 `json:"area_mm2"`
	FlowMM                 float64 `json:"flow_mm"`
	CtrlInlets             int     `json:"ctrl_inlets"`
}

func newFingerprint(plan *layout.Plan, d *validate.Design, scrBytes int) fingerprint {
	st, se := plan.Stats, plan.Stats.Search
	w, h := d.Dimensions()
	valves := 0
	if d.MuxBottom != nil {
		valves += len(d.MuxBottom.Valves)
	}
	if d.MuxTop != nil {
		valves += len(d.MuxTop.Valves)
	}
	return fingerprint{
		Status:                 st.Status.String(),
		Interrupted:            se.Interrupted,
		Rows:                   st.Rows,
		Binaries:               st.Binaries,
		SepRounds:              st.Rounds,
		Nodes:                  se.NodesExplored,
		NodesCutoff:            se.NodesCutoff,
		LPSolves:               se.LPSolves,
		Branchings:             se.Branchings,
		CutRounds:              se.CutRounds,
		CutsAdded:              se.CutsAdded,
		BoundsTightened:        se.BoundsTightened,
		Pivots:                 se.SimplexPivots,
		Refactorizations:       se.Refactorizations,
		SparseRefactorizations: se.SparseRefactorizations,
		WorkspaceReuses:        se.WorkspaceReuses,
		WarmStarts:             se.WarmStarts,
		WarmFallbacks:          se.WarmStartFallbacks,
		Phase1Rows:             se.Phase1Rows,
		BasisNonzeros:          se.BasisNonzeros,
		FillIn:                 se.FillIn,
		Channels:               len(plan.Planar.Channels),
		Valves:                 valves,
		SCRBytes:               scrBytes,
		AreaMM2:                geom.MM(w) * geom.MM(h),
		FlowMM:                 geom.MM(d.FlowLength()),
		CtrlInlets:             d.ControlInlets(),
	}
}

// input is one netlist of a workload.
type input struct {
	name string
	src  string
}

// table1Inputs returns the paper's evaluation: the six Table 1 cases,
// 1-MUX and 2-MUX. The smoke set keeps three fast ones.
func table1Inputs(smoke bool) []input {
	var ins []input
	for _, c := range cases.Table1() {
		for m := 1; m <= 2; m++ {
			name := fmt.Sprintf("%s-%d", c.ID, m)
			if smoke && name != "kinase21-2" && name != "chip64-1" && name != "chip128-1" {
				continue
			}
			ins = append(ins, input{name, c.WithMuxes(m).Source})
		}
	}
	return ins
}

// Scale-workload composition. About a quarter of gen.Scale(256, 8)
// netlists leave one lane outside every parallel group; that lane costs
// the layout an extra separation round and roughly doubles the solve.
// Each run draws a fixed number of netlists of each kind, so the mix —
// and with it the geomean — does not swing with the seed.
const (
	scaleLanes     = 256
	scaleGroup     = 8
	scaleGrouped   = 3 // netlists with every lane in a parallel group
	scaleUngrouped = 1 // netlists with a lane left ungrouped
)

// scaleInputs returns chip256 plus gen.Scale netlists drawn from seed.
func scaleInputs(seed int64, smoke bool) []input {
	grouped, ungrouped := scaleGrouped, scaleUngrouped
	ins := []input{{"chip256", cases.ChIP256().Source}}
	if smoke {
		grouped, ungrouped = 1, 0
		ins = nil
	}
	cfg := gen.Scale(scaleLanes, scaleGroup)
	rng := rand.New(rand.NewSource(seed))
	for grouped+ungrouped > 0 {
		n := cfg.Generate(rng.Int63n(1 << 40))
		if ungroupedLanes(n, scaleLanes) > 0 {
			if ungrouped == 0 {
				continue
			}
			ungrouped--
		} else {
			if grouped == 0 {
				continue
			}
			grouped--
		}
		ins = append(ins, input{n.Name, n.Format()})
	}
	return ins
}

// ungroupedLanes counts the lanes of a scale netlist that no parallel
// group holds (each group lists a lane's mixer and chamber).
func ungroupedLanes(n *netlist.Netlist, lanes int) int {
	for _, g := range n.Parallel {
		lanes -= len(g) / 2
	}
	return lanes
}

// warmInput is the design each set-up round synthesizes before timing
// starts, so the first timed job does not pay first-call costs: a small
// member of the workload's own class (dense and sparse LP for table1,
// a zero-binary sparse model for scale).
func warmInput(workload string) input {
	if workload == "scale" {
		return input{"chip128-1", cases.ChIP128().WithMuxes(1).Source}
	}
	return input{"kinase21-2", cases.Kinase21().WithMuxes(2).Source}
}

// jobOptions is the flow every timed job runs: default options, DRC on,
// and one branch-and-bound worker, because parallel search changes the
// work itself (explored nodes and pivots differ run to run).
func jobOptions(cfg config) core.Options {
	opt := core.DefaultOptions()
	opt.Layout.Workers = 1
	if cfg.timeLimit > 0 {
		opt.Layout.TimeLimit = cfg.timeLimit
	}
	return opt
}

// outcome is one synthesis job: netlist text to DRC-clean SCR bytes.
type outcome struct {
	wall   time.Duration
	budget time.Duration // the job's layout time budget
	fp     fingerprint
	design *validate.Design
	err    error
}

// synthesize runs one job through the library entry point, timed from
// netlist text to SCR bytes.
func synthesize(ctx context.Context, in input, opt core.Options) outcome {
	start := time.Now()
	res, err := core.SynthesizeSourceContext(ctx, in.src, opt)
	var scr bytes.Buffer
	if err == nil {
		err = res.WriteSCR(&scr)
	}
	o := outcome{wall: time.Since(start), budget: opt.Layout.TimeLimit, err: err}
	if err == nil {
		o.fp, o.design = newFingerprint(res.Plan, res.Design, scr.Len()), res.Design
	}
	return o
}

// synthesizeTraced runs the same job as synthesize by calling each
// layer's public function in turn, with a span around every call.
func synthesizeTraced(ctx context.Context, in input, opt core.Options, rec *recorder) outcome {
	start := time.Now()
	job := rec.begin("job", in.name, -1)
	fail := func(phase string, err error) outcome {
		rec.end(job)
		if phase != "" {
			err = &core.SynthesisError{Phase: phase, Err: err}
		}
		return outcome{wall: time.Since(start), budget: opt.Layout.TimeLimit, err: err}
	}
	call := func(name string, f func() error) error {
		sp := rec.begin(name, in.name, job)
		defer rec.end(sp)
		return f()
	}

	var n *netlist.Netlist
	if err := call("netlist.parse", func() (err error) { n, err = netlist.ParseString(in.src); return }); err != nil {
		return fail("", err)
	}
	var pr *planar.Result
	if err := call("planar.planarize", func() (err error) { pr, err = planar.Planarize(n); return }); err != nil {
		return fail(core.PhasePlanarize, err)
	}
	var plan *layout.Plan
	if err := call("layout.generate", func() (err error) { plan, err = layout.GenerateContext(ctx, pr, opt.Layout); return }); err != nil {
		return fail(core.PhaseLayout, err)
	}
	var d *validate.Design
	if err := call("validate.validate", func() (err error) { d, err = validate.Validate(plan); return }); err != nil {
		return fail(core.PhaseValidate, err)
	}
	var rep *drc.Report
	_ = call("drc.check", func() error { rep = drc.Check(d); return nil })
	if !rep.Clean() {
		return fail(core.PhaseDRC, fmt.Errorf("%d design-rule violation(s)", len(rep.Violations)))
	}
	var scr bytes.Buffer
	if err := call("export.scr", func() error { return export.WriteSCR(&scr, d) }); err != nil {
		return fail("", err)
	}
	rec.end(job)
	return outcome{wall: time.Since(start), budget: opt.Layout.TimeLimit, fp: newFingerprint(plan, d, scr.Len()), design: d}
}

// verdict classifies a job: "" when it counts, otherwise why it is a
// failed op. A job fails when synthesis failed, when the solve ran into
// its wall-clock budget or was interrupted (its work would then depend
// on machine speed), or when it does not repeat the first synthesis of
// the same input. suspect marks the failures that mean the outputs
// cannot be trusted: an untyped error or a counter mismatch.
func verdict(o outcome, first *fingerprint) (why string, suspect bool) {
	if o.err != nil {
		var se *core.SynthesisError
		var pe *netlist.ParseError
		typed := errors.As(o.err, &se) || errors.As(o.err, &pe)
		return "synthesis: " + o.err.Error(), !typed
	}
	if o.fp.Status == milp.Limit.String() || o.fp.Interrupted || o.wall >= o.budget {
		return fmt.Sprintf("budget: status %s after %v", o.fp.Status, o.wall.Round(time.Millisecond)), false
	}
	if first != nil && *first != o.fp {
		return "counters differ from the first synthesis: " + fpDiff(*first, o.fp), true
	}
	return "", false
}

// fpDiff lists the fields in which two fingerprints differ.
func fpDiff(a, b fingerprint) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			out = append(out, fmt.Sprintf("%s %v → %v", va.Type().Field(i).Name, x, y))
		}
	}
	return strings.Join(out, ", ")
}

// pipelineState accumulates a table1 or scale run.
type pipelineState struct {
	cfg      config
	opt      core.Options
	first    map[string]*fingerprint // first synthesis of each input
	checked  map[string]bool         // inputs whose design passed the DRC re-check
	samples  map[string][]float64    // timed wall per input, ms
	traced   map[string][]float64    // traced wall per input, ms (trace runs)
	order    []string                // inputs in first-timed order
	failures []string
	correct  bool
	attempts int
	failed   int
}

// account books one job. timed jobs enter the metrics; set-up jobs only
// take part in the determinism check.
func (st *pipelineState) account(in input, o outcome, timed bool, traced bool) {
	if timed {
		st.attempts++
	}
	if st.cfg.tamper != nil && o.err == nil && st.first[in.name] != nil {
		st.cfg.tamper(in.name, &o.fp)
	}
	why, suspect := verdict(o, st.first[in.name])
	if why == "" && timed && !st.checked[in.name] {
		// The output check: every counted design is re-checked against
		// the design rules, outside the timed window.
		if rep := drc.Check(o.design); !rep.Clean() {
			why, suspect = fmt.Sprintf("drc re-check: %d violation(s)", len(rep.Violations)), true
		} else {
			st.checked[in.name] = true
		}
	}
	if why != "" {
		st.failures = append(st.failures, in.name+": "+why)
		if suspect || !timed {
			st.correct = false
		}
		if timed {
			st.failed++
		}
		return
	}
	if st.first[in.name] == nil {
		fp := o.fp
		st.first[in.name] = &fp
	}
	if !timed {
		return
	}
	if len(st.samples[in.name])+len(st.traced[in.name]) == 0 {
		st.order = append(st.order, in.name)
	}
	if traced {
		st.traced[in.name] = append(st.traced[in.name], ms(o.wall))
	} else {
		st.samples[in.name] = append(st.samples[in.name], ms(o.wall))
	}
}

// runPipeline runs the table1 or scale workload.
func runPipeline(ctx context.Context, cfg config) (*runReport, error) {
	st := &pipelineState{
		cfg:     cfg,
		opt:     jobOptions(cfg),
		first:   map[string]*fingerprint{},
		checked: map[string]bool{},
		samples: map[string][]float64{},
		traced:  map[string][]float64{},
		correct: true,
	}
	warm := warmInput(cfg.workload)

	// Set-up: make the inputs and synthesize the warm-up design, from
	// scratch each round. The first round is timed from process start.
	var setups []float64
	var inputs []input
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		if round == 0 {
			t0 = processStart
		}
		if cfg.workload == "table1" {
			inputs = table1Inputs(cfg.smoke)
		} else {
			inputs = scaleInputs(cfg.seed, cfg.smoke)
		}
		// The warm-up keeps the default layout budget even when a test
		// shrinks the timed jobs' budget.
		o := synthesize(ctx, warm, jobOptions(config{}))
		if o.err != nil {
			return nil, fmt.Errorf("set-up synthesis of %s: %w", warm.name, o.err)
		}
		st.account(warm, o, false, false)
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Timed passes, each in an order drawn from the seed, until
	// --seconds have passed: at least one on table1 (a pass takes about
	// 30 s) and three on scale (about 7 s each). A trace run times every
	// job twice, so scale makes one pass fewer.
	rec := (*recorder)(nil)
	rng := rand.New(rand.NewSource(cfg.seed))
	minPasses := 1
	if cfg.workload == "scale" {
		minPasses = 3
	}
	if cfg.trace {
		rec = newRecorder()
		minPasses = max(minPasses-1, 1)
	}
	if cfg.smoke {
		minPasses = 2
	}
	reps := map[string]int{}
	k := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		for _, i := range rng.Perm(len(inputs)) {
			in := inputs[i]
			for r := 0; r < max(reps[in.name], 1); r++ {
				wall := st.timedJob(ctx, in, rec, k)
				if reps[in.name] == 0 && !cfg.smoke {
					reps[in.name] = repeatsFor(wall)
				}
				k++
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return st.report(setups, rec), nil
}

// timedJob runs the k-th timed job of the run and returns its untraced
// wall time. Trace runs time the job twice, untraced and traced,
// alternating which goes first, so the pair measures the tracing
// overhead side by side.
func (st *pipelineState) timedJob(ctx context.Context, in input, rec *recorder, k int) time.Duration {
	o := synthesize(ctx, in, st.opt)
	if rec == nil {
		st.account(in, o, true, false)
		return o.wall
	}
	if k%2 == 0 {
		st.account(in, o, true, false)
		st.account(in, synthesizeTraced(ctx, in, st.opt, rec), true, true)
		return o.wall
	}
	st.account(in, synthesizeTraced(ctx, in, st.opt, rec), true, true)
	o = synthesize(ctx, in, st.opt)
	st.account(in, o, true, false)
	return o.wall
}

// report assembles the metrics from the accumulated jobs.
func (st *pipelineState) report(setups []float64, rec *recorder) *runReport {
	f := newFigures()
	f.set("setup_s", median(setups), len(setups))

	var medians, area, flow []float64
	var fps []fingerprint
	samples, total := 0, 0.0
	inlets := 0
	rep := &runReport{Failures: st.failures}
	for _, name := range st.order {
		fp := *st.first[name]
		s := st.samples[name]
		rep.Designs = append(rep.Designs, designRow{Name: name, Samples: len(s), MedianMS: median(s), Checked: st.checked[name], FP: fp})
		if len(s) > 0 {
			medians = append(medians, median(s))
			total += median(s)
		}
		samples += len(s)
		fps = append(fps, fp)
		area = append(area, fp.AreaMM2)
		flow = append(flow, fp.FlowMM)
		inlets += fp.CtrlInlets
	}
	// Every request on this path is a synthesis job, so the request
	// geomean is the synthesis geomean; per-design medians keep the
	// repeated short designs from outweighing the others. jobs_per_s is
	// the throughput of one job per design at median speed.
	f.set("synth_geomean_ms", geomean(medians), samples)
	f.set("request_geomean_ms", geomean(medians), samples)
	if total > 0 {
		f.set("jobs_per_s", float64(len(medians))/(total/1000), samples)
	}
	f.set("peak_rss_mb", peakRSSMB(), 1)
	f.set("area_geomean_mm2", geomean(area), len(area))
	f.set("flow_geomean_mm", geomean(flow), len(flow))
	f.set("ctrl_inlets_total", float64(inlets), len(fps))

	if rec != nil {
		spans := rec.finish()
		rep.Spans = spans
		dur, self := layerTimes(spans)
		n := 0
		for _, s := range spans {
			if s.Name == "job" {
				n++
			}
		}
		for _, name := range []string{"netlist.parse", "planar.planarize", "layout.generate", "validate.validate", "drc.check"} {
			f.set(name+"_ms", dur[name], n)
		}
		f.set("export.scr_ms", dur["export.scr"], n)
		f.set("core.residual_ms", self["job"], n)
		f.setCounts(fps)
		var ratios []float64
		for _, name := range st.order {
			if u, t := st.samples[name], st.traced[name]; len(u) > 0 && len(t) > 0 {
				ratios = append(ratios, median(t)/median(u))
			}
		}
		f.set("trace.overhead_pct", 100*(geomean(ratios)-1), len(ratios))
	}
	rep.Result = result{Correct: st.correct, Attempted: st.attempts, Failed: st.failed}
	rep.Result.Metrics, rep.Samples = f.metrics(st.cfg.trace)
	return rep
}
