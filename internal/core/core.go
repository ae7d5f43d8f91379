package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"columbas/internal/drc"
	"columbas/internal/export"
	"columbas/internal/geom"
	"columbas/internal/layout"
	"columbas/internal/milp"
	"columbas/internal/netlist"
	"columbas/internal/obs"
	"columbas/internal/planar"
	"columbas/internal/validate"
)

// Options configures a synthesis run. The json tags are a stable
// contract: columbasd's /v2 job resources embed the resolved Options of
// every job, and OptionSpec is the matching wire form for requests.
type Options struct {
	// Layout configures the generation-phase MILP; zero value uses
	// layout.DefaultOptions.
	Layout layout.Options `json:"layout"`
	// RunDRC verifies the completed design against the design rules and
	// fails synthesis on violations.
	RunDRC bool `json:"run_drc"`
	// NoDelta disables the delta-aware warm-start path: any Warm hint is
	// ignored and the pipeline solves cold (ablation; also what the
	// server sets for -no-delta requests so the win stays measurable).
	NoDelta bool `json:"no_delta,omitempty"`
	// Warm, when non-nil, is a donor design's warm-start payload (see
	// layout.WarmHint), typically Result.WarmHint() of a previous solve
	// of a similar netlist. Stale or wrongly shaped hints degrade
	// silently to a cold solve. Transient: never serialized.
	Warm *layout.WarmHint `json:"-"`
	// Trace, when non-nil, records the run as hierarchical phase spans
	// (parse → planarize → layout → validate → drc) with the counters
	// documented in docs/metrics.md. A nil trace disables all recording.
	// Transient: never serialized.
	Trace *obs.Trace `json:"-"`
}

// DefaultOptions returns the standard flow configuration.
func DefaultOptions() Options {
	return Options{Layout: layout.DefaultOptions(), RunDRC: true}
}

// Result is a completed synthesis run with its Table 1 metrics.
type Result struct {
	Design *validate.Design
	Plan   *layout.Plan
	DRC    *drc.Report // nil unless RunDRC

	// Runtime is the end-to-end synthesis wall-clock time (the paper's
	// "program run time" column).
	Runtime time.Duration
}

// Metrics are the Table 1 figures of merit for one design. The json
// tags are stable: /v2 job status documents embed them.
type Metrics struct {
	Name string `json:"name"`
	// Muxes is the multiplexer count (1 or 2).
	Muxes int `json:"muxes"`
	// WidthMM, HeightMM are v_x_max * v_y_max of the full chip in mm.
	WidthMM  float64 `json:"width_mm"`
	HeightMM float64 `json:"height_mm"`
	// FlowMM is L_f: functional-region flow channel length in mm.
	FlowMM float64 `json:"flow_mm"`
	// CtrlInlets is #c_in.
	CtrlInlets int `json:"ctrl_inlets"`
	// FluidPorts is the number of fluid inlets/outlets.
	FluidPorts int `json:"fluid_ports"`
	// Units is #u.
	Units int `json:"units"`
	// Runtime is the synthesis time in nanoseconds.
	Runtime time.Duration `json:"runtime_ns"`
	// SolverStatus reports how the generation model terminated.
	SolverStatus milp.Status `json:"solver_status"`
}

// Metrics extracts the evaluation metrics from a run.
func (r *Result) Metrics() Metrics {
	w, h := r.Design.Dimensions()
	units := 0
	for _, n := range r.Plan.Planar.Nodes {
		if n.Kind == planar.NodeUnit {
			units++
		}
	}
	return Metrics{
		Name:         r.Design.Name,
		Muxes:        r.Design.Muxes,
		WidthMM:      geom.MM(w),
		HeightMM:     geom.MM(h),
		FlowMM:       geom.MM(r.Design.FlowLength()),
		CtrlInlets:   r.Design.ControlInlets(),
		FluidPorts:   len(r.Design.Inlets),
		Units:        units,
		Runtime:      r.Runtime,
		SolverStatus: r.Plan.Stats.Status,
	}
}

// WarmHint packs this result's layout into the donor payload a later
// synthesis of a similar netlist can warm-start from (Options.Warm).
// Returns nil when the result carries no plan.
func (r *Result) WarmHint() *layout.WarmHint {
	if r == nil {
		return nil
	}
	return layout.HintFromPlan(r.Plan)
}

// Synthesize runs the full Columba S flow on a parsed netlist. It is
// SynthesizeContext under context.Background().
func Synthesize(n *netlist.Netlist, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), n, opt)
}

// SynthesizeContext runs the full Columba S flow on a parsed netlist
// under a context. This is the primary entry point; Synthesize,
// SynthesizeSource and SynthesizeReader are thin wrappers over the same
// implementation.
//
// The context's deadline and cancellation are threaded through
// layout.Options into the branch-and-bound workers: a canceled or
// expired context genuinely stops the in-flight MILP solve (observable
// as Plan.Stats.Search.Interrupted) and SynthesizeContext returns a
// *SynthesisError with Phase PhaseCancel wrapping ctx.Err(). Every
// failure path returns a *SynthesisError naming the pipeline phase that
// rejected the netlist. Contrast with Options.Layout.TimeLimit,
// which is a solver budget — exceeding it degrades to the greedy seed
// rather than failing the run.
//
// opt is never mutated: the same Options value can be reused (and
// fingerprinted, e.g. for result caching) across concurrent calls.
func SynthesizeContext(ctx context.Context, n *netlist.Netlist, opt Options) (*Result, error) {
	start := time.Now()
	tr := opt.Trace
	tr.SetName(n.Name)
	// Work on a private copy of the layout options: the pipeline treats
	// the caller's Options as immutable.
	lopt := opt.Layout
	if lopt == (layout.Options{}) {
		lopt = layout.DefaultOptions()
	}
	if opt.Warm != nil && !opt.NoDelta {
		lopt.Warm = opt.Warm
	}
	if err := ctx.Err(); err != nil {
		return nil, &SynthesisError{Phase: PhaseCancel, Err: err}
	}

	sp := tr.Phase("planarize")
	pr, err := planar.Planarize(n)
	if err != nil {
		sp.End()
		return nil, &SynthesisError{Phase: PhasePlanarize, Err: err}
	}
	sp.SetInt("nodes", int64(len(pr.Nodes)))
	sp.SetInt("channels", int64(len(pr.Channels)))
	sp.SetInt("switches_added", int64(pr.SwitchCount))
	sp.End()

	sp = tr.Phase("layout")
	lopt.Obs = sp
	plan, err := layout.GenerateContext(ctx, pr, lopt)
	if err != nil {
		sp.End()
		if ctx.Err() != nil {
			return nil, &SynthesisError{Phase: PhaseCancel, Err: err}
		}
		return nil, &SynthesisError{Phase: PhaseLayout, Err: err}
	}
	recordLayout(sp, plan)
	sp.End()

	if err := ctx.Err(); err != nil {
		return nil, &SynthesisError{Phase: PhaseCancel, Err: err}
	}
	sp = tr.Phase("validate")
	d, err := validate.ValidateObs(plan, sp)
	if err != nil {
		sp.End()
		return nil, &SynthesisError{Phase: PhaseValidate, Err: err}
	}
	sp.SetInt("modules", int64(len(d.Modules)))
	sp.SetInt("flow_channels", int64(len(d.Flow)))
	sp.SetInt("ctrl_channels", int64(len(d.Ctrl)))
	sp.SetInt("fluid_ports", int64(len(d.Inlets)))
	sp.End()

	res := &Result{Design: d, Plan: plan}
	if opt.RunDRC {
		sp = tr.Phase("drc")
		res.DRC = drc.Check(d)
		sp.SetInt("rules_checked", int64(res.DRC.Checked))
		sp.SetInt("violations", int64(len(res.DRC.Violations)))
		sp.End()
		if !res.DRC.Clean() {
			res.Runtime = time.Since(start)
			return res, &SynthesisError{Phase: PhaseDRC, Err: fmt.Errorf(
				"design-rule check failed with %d violation(s); first: %v",
				len(res.DRC.Violations), res.DRC.Violations[0])}
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// recordLayout attaches the generation phase's model shape and aggregated
// branch-and-bound counters (the milp_* family of docs/metrics.md) to the
// layout span. No-op on a nil span.
func recordLayout(sp *obs.Span, plan *layout.Plan) {
	if sp == nil || plan == nil {
		return
	}
	st := plan.Stats
	sp.Label("status", st.Status.String())
	sp.SetInt("vars", int64(st.Vars))
	sp.SetInt("rows", int64(st.Rows))
	sp.SetInt("binaries", int64(st.Binaries))
	sp.SetInt("sep_rounds", int64(st.Rounds))
	if st.SeedOnly {
		sp.Label("seed_only", "true")
	}
	se := st.Search
	if se.Interrupted {
		sp.Label("milp_interrupted", "true")
	}
	sp.SetInt("milp_workers", int64(se.Workers))
	sp.SetInt("milp_nodes", se.NodesExplored)
	sp.SetInt("milp_nodes_pruned", se.NodesPruned)
	sp.SetInt("milp_nodes_cutoff", se.NodesCutoff)
	sp.SetInt("milp_inflight_high_water", int64(se.InFlightHighWater))
	sp.SetInt("milp_lp_solves", se.LPSolves)
	sp.SetInt("milp_simplex_pivots", se.SimplexPivots)
	sp.SetInt("milp_warm_starts", se.WarmStarts)
	sp.SetInt("milp_cold_solves", se.ColdSolves)
	sp.SetInt("milp_warm_fallbacks", se.WarmStartFallbacks)
	sp.SetInt("milp_warm_pivots", se.WarmPivots)
	sp.SetInt("milp_cold_pivots", se.ColdPivots)
	sp.SetInt("milp_phase1_rows", se.Phase1Rows)
	sp.SetInt("milp_eta_updates", se.EtaUpdates)
	sp.SetInt("milp_refactorizations", se.Refactorizations)
	sp.SetInt("milp_fill_in", se.FillIn)
	sp.SetInt("milp_basis_nonzeros", se.BasisNonzeros)
	sp.SetInt("milp_workspace_reuses", se.WorkspaceReuses)
	sp.SetInt("milp_incumbent_updates", se.IncumbentUpdates)
	sp.SetInt("milp_rounding_attempts", se.RoundingAttempts)
	sp.SetInt("milp_rounding_hits", se.RoundingHits)
	sp.SetInt("milp_nodes_presolved", se.NodesPresolved)
	sp.SetInt("milp_bounds_tightened", se.BoundsTightened)
	sp.SetInt("milp_rows_removed", se.RowsRemoved)
	sp.SetInt("milp_coefs_strengthened", se.CoefsStrengthened)
	sp.SetInt("milp_cuts_added", se.CutsAdded)
	sp.SetInt("milp_cut_rounds", se.CutRounds)
	sp.SetInt("milp_branchings", se.Branchings)
	sp.SetInt("milp_group_branches", se.GroupBranches)
	sp.SetInt("milp_delta_warm_starts", se.DeltaWarmStarts)
	sp.SetInt("milp_delta_fallbacks", se.DeltaFallbacks)
	sp.SetInt("milp_incumbent_from_hint", se.IncumbentFromHint)
	for i, w := range se.PerWorker {
		if se.Workers <= 1 {
			break
		}
		sp.SetInt(fmt.Sprintf("milp_worker%d_nodes", i), w.Nodes)
		sp.Set(fmt.Sprintf("milp_worker%d_utilization", i),
			math.Round(w.Utilization(se.Wall)*1000)/1000)
	}
}

// SynthesizeSource parses a netlist description and synthesizes it.
func SynthesizeSource(src string, opt Options) (*Result, error) {
	return SynthesizeSourceContext(context.Background(), src, opt)
}

// SynthesizeSourceContext parses a netlist description and synthesizes
// it under a context (see SynthesizeContext for the cancellation
// semantics).
func SynthesizeSourceContext(ctx context.Context, src string, opt Options) (*Result, error) {
	sp := opt.Trace.Phase("parse")
	n, err := netlist.ParseString(src)
	recordParse(sp, n, err)
	if err != nil {
		return nil, err
	}
	return SynthesizeContext(ctx, n, opt)
}

// SynthesizeReader parses a netlist description from r and synthesizes it.
func SynthesizeReader(r io.Reader, opt Options) (*Result, error) {
	return SynthesizeReaderContext(context.Background(), r, opt)
}

// SynthesizeReaderContext parses a netlist description from r and
// synthesizes it under a context (see SynthesizeContext).
func SynthesizeReaderContext(ctx context.Context, r io.Reader, opt Options) (*Result, error) {
	sp := opt.Trace.Phase("parse")
	n, err := netlist.Parse(r)
	recordParse(sp, n, err)
	if err != nil {
		return nil, err
	}
	return SynthesizeContext(ctx, n, opt)
}

// recordParse seals the parse span with the netlist's headline counts.
func recordParse(sp *obs.Span, n *netlist.Netlist, err error) {
	if sp == nil {
		return
	}
	if err == nil {
		sp.SetInt("units", int64(n.NumUnits()))
		sp.SetInt("muxes", int64(n.Muxes))
	}
	sp.End()
}

// WriteSCR exports the result as an AutoCAD script (Section 3.3).
func (r *Result) WriteSCR(w io.Writer) error { return export.WriteSCR(w, r.Design) }

// WriteSVG renders the result as an SVG figure.
func (r *Result) WriteSVG(w io.Writer) error { return export.WriteSVG(w, r.Design) }

// WriteJSON dumps the design summary as JSON.
func (r *Result) WriteJSON(w io.Writer) error { return export.WriteJSON(w, r.Design) }

// WriteDXF exports the result as an ASCII DXF drawing.
func (r *Result) WriteDXF(w io.Writer) error { return export.WriteDXF(w, r.Design) }

// WritePlanSVG renders the generation-phase rectangle plan (Figure 6(b)).
func (r *Result) WritePlanSVG(w io.Writer) error { return export.WritePlanSVG(w, r.Plan) }

// WriteASCII renders the design as a terminal character raster.
func (r *Result) WriteASCII(w io.Writer, cols int) error {
	return export.WriteASCII(w, r.Design, cols)
}

// WriteReport writes the markdown datasheet (metrics, module inventory,
// multiplexer addressing tables, fluid ports).
func (r *Result) WriteReport(w io.Writer) error { return export.WriteReport(w, r.Design) }

// Export renders the result in the named format from the export.Formats
// registry (canonical name or alias). The CLI's -format flag and the
// columbasd content negotiation both resolve through the same registry,
// so the accepted names are identical everywhere.
func (r *Result) Export(w io.Writer, format string) error {
	f, ok := export.Lookup(format)
	if !ok {
		return fmt.Errorf("core: unknown export format %q (want one of %s)",
			format, strings.Join(export.Names(), ", "))
	}
	return f.Write(w, r.Design, r.Plan)
}
