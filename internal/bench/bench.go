package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"columbas/internal/cases"
	"columbas/internal/columba2"
	"columbas/internal/core"
	"columbas/internal/milp"
	"columbas/internal/obs"
	"columbas/internal/planar"
)

// Config budgets one harness run.
type Config struct {
	// STime bounds each Columba S layout generation.
	STime time.Duration
	// BTime bounds the Columba 2.0 baseline model.
	BTime time.Duration
	// StallLimit for the Columba S search.
	StallLimit int
	// SkipBaseline omits the Columba 2.0 runs.
	SkipBaseline bool
	// DRC verifies every S design.
	DRC bool
	// Workers is the branch-and-bound worker count for the Columba S
	// layout solves (0 or 1: sequential; negative: GOMAXPROCS).
	Workers int
	// NoWarmStart solves every branch-and-bound LP cold instead of
	// warm-starting from the parent basis (the before side of
	// make bench-warmstart).
	NoWarmStart bool
	// NoPresolve disables MILP presolve (bound tightening, redundant
	// rows, coefficient strengthening).
	NoPresolve bool
	// NoDelta disables the delta-aware warm-start pipeline: any donor
	// hint (core.Options.Warm) is ignored and every solve runs cold.
	NoDelta bool
}

// DefaultConfig mirrors the evaluation setup: generous budget for the
// baseline (which is expected to exhaust it), tight budget for S.
func DefaultConfig() Config {
	return Config{
		STime:      60 * time.Second,
		BTime:      30 * time.Second,
		StallLimit: 200,
		DRC:        true,
	}
}

// SRun is the outcome of one Columba S synthesis.
type SRun struct {
	Metrics core.Metrics
	DRCOK   bool
	// Trace is the run's per-phase breakdown (docs/metrics.md schema):
	// wall time and counters for parse, planarize, layout (with the
	// milp_* solver counters), validate and drc. FormatJSON embeds it so
	// benchmark artifacts carry the full cost structure, not just the
	// end-to-end runtime.
	Trace *obs.TraceJSON
}

// BRun is the outcome of one baseline synthesis.
type BRun struct {
	WidthMM, HeightMM float64
	FlowMM            float64
	CtrlInlets        int
	Runtime           time.Duration
	Status            milp.Status
	Binaries          int
	TooLarge          bool // paper: "cannot solve within reasonable run time"
}

// Row is one Table 1 row: a case with its three design variants.
type Row struct {
	Case     cases.Case
	Baseline *BRun // nil when skipped
	S1, S2   *SRun
	Err      error
}

// RunS synthesizes one Columba S variant of a case.
func RunS(c cases.Case, muxes int, cfg Config) (*SRun, error) {
	n, err := c.WithMuxes(muxes).Netlist()
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	opt.Layout.TimeLimit = cfg.STime
	opt.Layout.Workers = cfg.Workers
	opt.Layout.NoWarmStart = cfg.NoWarmStart
	opt.Layout.NoPresolve = cfg.NoPresolve
	opt.NoDelta = cfg.NoDelta
	if cfg.StallLimit > 0 {
		opt.Layout.StallLimit = cfg.StallLimit
	}
	opt.RunDRC = cfg.DRC
	tr := obs.New(fmt.Sprintf("%s-%dmux", c.ID, muxes))
	opt.Trace = tr
	res, err := core.Synthesize(n, opt)
	if err != nil {
		return nil, err
	}
	tr.Finish()
	run := &SRun{Metrics: res.Metrics(), Trace: tr.Snapshot()}
	run.DRCOK = res.DRC == nil || res.DRC.Clean()
	return run, nil
}

// RunBaseline synthesizes the Columba 2.0 baseline of a case.
func RunBaseline(c cases.Case, cfg Config) (*BRun, error) {
	n, err := c.Netlist()
	if err != nil {
		return nil, err
	}
	pr, err := planar.Planarize(n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := columba2.Synthesize(pr, columba2.Options{
		TimeLimit:  cfg.BTime,
		StallLimit: cfg.StallLimit,
		Gap:        0.05,
	})
	if errors.Is(err, columba2.ErrTooLarge) {
		return &BRun{TooLarge: true, Runtime: time.Since(start)}, nil
	}
	if err != nil {
		return nil, err
	}
	return &BRun{
		WidthMM:    res.W / 1000,
		HeightMM:   res.H / 1000,
		FlowMM:     res.FlowLength / 1000,
		CtrlInlets: res.CtrlInlets,
		Runtime:    res.Runtime,
		Status:     res.Status,
		Binaries:   res.ModelBinaries,
	}, nil
}

// RunCase produces one complete Table 1 row.
func RunCase(c cases.Case, cfg Config) *Row {
	row := &Row{Case: c}
	if !cfg.SkipBaseline {
		b, err := RunBaseline(c, cfg)
		if err != nil {
			row.Err = fmt.Errorf("baseline: %w", err)
			return row
		}
		row.Baseline = b
	}
	s1, err := RunS(c, 1, cfg)
	if err != nil {
		row.Err = fmt.Errorf("S 1-MUX: %w", err)
		return row
	}
	row.S1 = s1
	s2, err := RunS(c, 2, cfg)
	if err != nil {
		row.Err = fmt.Errorf("S 2-MUX: %w", err)
		return row
	}
	row.S2 = s2
	return row
}

// RunTable1 runs the full evaluation.
func RunTable1(cfg Config) []*Row {
	var rows []*Row
	for _, c := range cases.Table1() {
		rows = append(rows, RunCase(c, cfg))
	}
	return rows
}

// FormatTable renders rows in the layout of the paper's Table 1.
func FormatTable(rows []*Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s | %-13s %-13s %-13s | %9s %16s %16s | %5s %10s %10s | %10s %10s %10s\n",
		"app", "#u",
		"dim 2.0", "dim S-1MUX", "dim S-2MUX",
		"Lf 2.0", "Lf S-1MUX", "Lf S-2MUX",
		"#c 2.0", "#c 1MUX", "#c 2MUX",
		"t 2.0", "t 1MUX", "t 2MUX")
	b.WriteString(strings.Repeat("-", 190) + "\n")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-10s %4d | error: %v\n", r.Case.ID, r.Case.Units, r.Err)
			continue
		}
		dim := func(w, h float64) string { return fmt.Sprintf("%.2f*%.2f", w, h) }
		pct := func(v, base float64) string {
			if base == 0 {
				return fmt.Sprintf("%.1f", v)
			}
			return fmt.Sprintf("%.1f (%+.0f%%)", v, (v-base)/base*100)
		}
		pctI := func(v, base int) string {
			if base == 0 {
				return fmt.Sprintf("%d", v)
			}
			return fmt.Sprintf("%d (%+.0f%%)", v, float64(v-base)/float64(base)*100)
		}
		var bdim, blf, bc, bt string
		var baseLf float64
		var baseC int
		if r.Baseline == nil {
			bdim, blf, bc, bt = `\`, `\`, `\`, `\`
		} else if r.Baseline.TooLarge {
			bdim, blf, bc, bt = `\`, `\`, `\`, "unsolvable"
		} else {
			bdim = dim(r.Baseline.WidthMM, r.Baseline.HeightMM)
			blf = fmt.Sprintf("%.1f", r.Baseline.FlowMM)
			bc = fmt.Sprintf("%d", r.Baseline.CtrlInlets)
			suffix := ""
			if r.Baseline.Status == milp.Limit || r.Baseline.Status == milp.Feasible {
				suffix = "+" // budget exhausted: a lower bound on 2.0's runtime
			}
			bt = fmt.Sprintf("%.1fs%s", r.Baseline.Runtime.Seconds(), suffix)
			baseLf = r.Baseline.FlowMM
			baseC = r.Baseline.CtrlInlets
		}
		m1, m2 := r.S1.Metrics, r.S2.Metrics
		fmt.Fprintf(&b, "%-10s %4d | %-13s %-13s %-13s | %9s %16s %16s | %5s %10s %10s | %10s %9.1fs %9.1fs\n",
			r.Case.ID, r.Case.Units,
			bdim, dim(m1.WidthMM, m1.HeightMM), dim(m2.WidthMM, m2.HeightMM),
			blf, pct(m1.FlowMM, baseLf), pct(m2.FlowMM, baseLf),
			bc, pctI(m1.CtrlInlets, baseC), pctI(m2.CtrlInlets, baseC),
			bt, m1.Runtime.Seconds(), m2.Runtime.Seconds())
	}
	return b.String()
}

// FormatCSV renders rows as machine-readable CSV (one line per case) for
// downstream plotting of the evaluation series.
func FormatCSV(rows []*Row) string {
	var b strings.Builder
	b.WriteString("case,units," +
		"b_width_mm,b_height_mm,b_flow_mm,b_ctrl_inlets,b_runtime_s,b_status," +
		"s1_width_mm,s1_height_mm,s1_flow_mm,s1_ctrl_inlets,s1_runtime_s," +
		"s2_width_mm,s2_height_mm,s2_flow_mm,s2_ctrl_inlets,s2_runtime_s\n")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%s,%d,error,,,,,,,,,,,,,,,\n", r.Case.ID, r.Case.Units)
			continue
		}
		if r.Baseline == nil || r.Baseline.TooLarge {
			status := "skipped"
			if r.Baseline != nil {
				status = "unsolvable"
			}
			fmt.Fprintf(&b, "%s,%d,,,,,,%s,", r.Case.ID, r.Case.Units, status)
		} else {
			fmt.Fprintf(&b, "%s,%d,%.2f,%.2f,%.2f,%d,%.2f,%v,",
				r.Case.ID, r.Case.Units,
				r.Baseline.WidthMM, r.Baseline.HeightMM, r.Baseline.FlowMM,
				r.Baseline.CtrlInlets, r.Baseline.Runtime.Seconds(), r.Baseline.Status)
		}
		m1, m2 := r.S1.Metrics, r.S2.Metrics
		fmt.Fprintf(&b, "%.2f,%.2f,%.2f,%d,%.2f,%.2f,%.2f,%.2f,%d,%.2f\n",
			m1.WidthMM, m1.HeightMM, m1.FlowMM, m1.CtrlInlets, m1.Runtime.Seconds(),
			m2.WidthMM, m2.HeightMM, m2.FlowMM, m2.CtrlInlets, m2.Runtime.Seconds())
	}
	return b.String()
}

// TrendReport checks the four qualitative trends of Section 4 against the
// measured rows and describes any departures.
func TrendReport(rows []*Row) string {
	var b strings.Builder
	for _, r := range rows {
		if r.Err != nil || r.Baseline == nil || r.Baseline.TooLarge {
			continue
		}
		m1, m2 := r.S1.Metrics, r.S2.Metrics
		check := func(ok bool, trend string) {
			status := "OK "
			if !ok {
				status = "DEV"
			}
			fmt.Fprintf(&b, "  [%s] %s: %s\n", status, r.Case.ID, trend)
		}
		check(m1.Runtime < r.Baseline.Runtime && m2.Runtime < r.Baseline.Runtime,
			fmt.Sprintf("trend 1: S faster than 2.0 (%.1fs/%.1fs vs %.1fs)",
				m1.Runtime.Seconds(), m2.Runtime.Seconds(), r.Baseline.Runtime.Seconds()))
		check(m1.CtrlInlets <= r.Baseline.CtrlInlets,
			fmt.Sprintf("trend 2: S 1-MUX uses fewer inlets (%d vs %d)", m1.CtrlInlets, r.Baseline.CtrlInlets))
		check(m1.CtrlInlets <= m2.CtrlInlets,
			fmt.Sprintf("trend 2b: 1-MUX <= 2-MUX inlets (%d vs %d)", m1.CtrlInlets, m2.CtrlInlets))
		check(m1.FlowMM < r.Baseline.FlowMM,
			fmt.Sprintf("trend 3: S flow shorter (%.1f vs %.1f mm)", m1.FlowMM, r.Baseline.FlowMM))
		sArea := m1.WidthMM * m1.HeightMM
		bArea := r.Baseline.WidthMM * r.Baseline.HeightMM
		check(sArea >= bArea*0.8,
			fmt.Sprintf("trend 4: S area >= 2.0 area (%.0f vs %.0f mm²)", sArea, bArea))
	}
	return b.String()
}
