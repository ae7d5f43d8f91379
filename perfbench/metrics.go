package main

// Every run reports every metric of its mode, so each workload fills the
// whole table; a per-layer metric of a layer the workload never runs
// (the server layers on table1 and scale) reads 0. BENCHMARK.json names
// the same metrics with the same units; the self-test holds the two
// together.

// endToEndUnits are the metrics of an untraced run.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"synth_geomean_ms":   "ms",
	"request_geomean_ms": "ms",
	"jobs_per_s":         "1/s",
	"peak_rss_mb":        "MB",
	"area_geomean_mm2":   "mm2",
	"flow_geomean_mm":    "mm",
	"ctrl_inlets_total":  "count",
}

// perLayerUnits are the metrics of a traced run.
var perLayerUnits = map[string]string{
	"netlist.parse_ms":           "ms",
	"planar.planarize_ms":        "ms",
	"planar.channels":            "count",
	"layout.generate_ms":         "ms",
	"layout.rows":                "count",
	"layout.binaries":            "count",
	"layout.sep_rounds":          "count",
	"milp.nodes":                 "count",
	"milp.lp_solves":             "count",
	"milp.branchings":            "count",
	"milp.cut_rounds":            "count",
	"milp.cuts_added":            "count",
	"milp.bounds_tightened":      "count",
	"milp.nodes_cutoff":          "count",
	"lp.pivots":                  "count",
	"lp.refactorizations":        "count",
	"lp.sparse_refactorizations": "count",
	"lp.workspace_reuses":        "count",
	"lp.warm_starts":             "count",
	"lp.warm_fallbacks":          "count",
	"lp.phase1_rows":             "count",
	"lp.basis_nonzeros":          "count",
	"lp.fill_in":                 "count",
	"validate.validate_ms":       "ms",
	"validate.valves":            "count",
	"drc.check_ms":               "ms",
	"export.scr_ms":              "ms",
	"export.scr_bytes":           "bytes",
	"core.residual_ms":           "ms",
	"server.submit_ms":           "ms",
	"server.queue_wait_ms":       "ms",
	"server.run_ms":              "ms",
	"server.notify_ms":           "ms",
	"server.fetch_ms":            "ms",
	"server.fetch_bytes":         "bytes",
	"server.cache_hits":          "count",
	"server.similarity_hits":     "count",
	"server.delta_warm_starts":   "count",
	"server.delta_fallbacks":     "count",
	"server.evictions":           "count",
	"server.shed":                "count",
	"trace.overhead_pct":         "%",
}

// figures collects a run's metric values and the sample count behind each.
type figures struct {
	values  map[string]float64
	samples map[string]int
}

func newFigures() *figures {
	return &figures{values: map[string]float64{}, samples: map[string]int{}}
}

func (f *figures) set(name string, v float64, n int) {
	f.values[name] = v
	f.samples[name] = n
}

// metrics returns every metric of the mode's table, with its unit; the
// ones the workload did not set read 0 with 0 samples.
func (f *figures) metrics(trace bool) (map[string]metric, map[string]int) {
	units := endToEndUnits
	if trace {
		units = perLayerUnits
	}
	out := make(map[string]metric, len(units))
	samples := make(map[string]int, len(units))
	for name, unit := range units {
		out[name] = metric{Value: f.values[name], Unit: unit}
		samples[name] = f.samples[name]
	}
	return out, samples
}

// setCounts sets the per-layer design counters as means over designs
// (lp.basis_nonzeros as the maximum: it is a high-water mark).
func (f *figures) setCounts(fps []fingerprint) {
	n := len(fps)
	if n == 0 {
		return
	}
	fields := map[string]func(fingerprint) float64{
		"planar.channels":            func(p fingerprint) float64 { return float64(p.Channels) },
		"layout.rows":                func(p fingerprint) float64 { return float64(p.Rows) },
		"layout.binaries":            func(p fingerprint) float64 { return float64(p.Binaries) },
		"layout.sep_rounds":          func(p fingerprint) float64 { return float64(p.SepRounds) },
		"milp.nodes":                 func(p fingerprint) float64 { return float64(p.Nodes) },
		"milp.lp_solves":             func(p fingerprint) float64 { return float64(p.LPSolves) },
		"milp.branchings":            func(p fingerprint) float64 { return float64(p.Branchings) },
		"milp.cut_rounds":            func(p fingerprint) float64 { return float64(p.CutRounds) },
		"milp.cuts_added":            func(p fingerprint) float64 { return float64(p.CutsAdded) },
		"milp.bounds_tightened":      func(p fingerprint) float64 { return float64(p.BoundsTightened) },
		"milp.nodes_cutoff":          func(p fingerprint) float64 { return float64(p.NodesCutoff) },
		"lp.pivots":                  func(p fingerprint) float64 { return float64(p.Pivots) },
		"lp.refactorizations":        func(p fingerprint) float64 { return float64(p.Refactorizations) },
		"lp.sparse_refactorizations": func(p fingerprint) float64 { return float64(p.SparseRefactorizations) },
		"lp.workspace_reuses":        func(p fingerprint) float64 { return float64(p.WorkspaceReuses) },
		"lp.warm_starts":             func(p fingerprint) float64 { return float64(p.WarmStarts) },
		"lp.warm_fallbacks":          func(p fingerprint) float64 { return float64(p.WarmFallbacks) },
		"lp.phase1_rows":             func(p fingerprint) float64 { return float64(p.Phase1Rows) },
		"lp.fill_in":                 func(p fingerprint) float64 { return float64(p.FillIn) },
		"validate.valves":            func(p fingerprint) float64 { return float64(p.Valves) },
		"export.scr_bytes":           func(p fingerprint) float64 { return float64(p.SCRBytes) },
	}
	for name, get := range fields {
		sum := 0.0
		for _, p := range fps {
			sum += get(p)
		}
		f.set(name, sum/float64(n), n)
	}
	hw := int64(0)
	for _, p := range fps {
		if p.BasisNonzeros > hw {
			hw = p.BasisNonzeros
		}
	}
	f.set("lp.basis_nonzeros", float64(hw), n)
}
