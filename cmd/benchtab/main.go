// Command benchtab regenerates the paper's evaluation artifacts:
//
//   - Table 1: design-feature comparison between the Columba 2.0 baseline
//     and Columba S (1-MUX and 2-MUX) on all six test cases;
//   - the Figure 1 comparison (-fig1): the kinase-activity design's run
//     time, inlet count and flow-channel length under both tools.
//
// Absolute numbers differ from the paper (different machine, and a pure-Go
// MILP solver substitutes for Gurobi — see DESIGN.md); the qualitative
// trends of Section 4 are checked and reported explicitly.
//
// Usage:
//
//	benchtab                     # full Table 1 (several minutes)
//	benchtab -cases nap6,chip9   # subset
//	benchtab -fig1               # the Figure 1 comparison only
//	benchtab -stime 10s -btime 10s -quick
//	benchtab -json BENCH_run.json -pprof-cpu cpu.out
//
// -json writes the columbas-bench/v1 report (docs/metrics.md): the Table 1
// metrics plus, for every Columba S run, the per-phase trace with the
// milp_* solver counters — the stable artifact future performance PRs
// diff against.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"columbas/internal/bench"
	"columbas/internal/cases"
	"columbas/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		caseList = flag.String("cases", "", "comma-separated case ids (default: all six)")
		stime    = flag.Duration("stime", 60*time.Second, "Columba S time budget per design")
		btime    = flag.Duration("btime", 30*time.Second, "Columba 2.0 baseline time budget")
		quick    = flag.Bool("quick", false, "small stall limit for a fast smoke run")
		noBase   = flag.Bool("skip-baseline", false, "skip the Columba 2.0 runs")
		fig1     = flag.Bool("fig1", false, "run the Figure 1 kinase comparison only")
		csvPath  = flag.String("csv", "", "also write the results as CSV to this file")
		jsonPath = flag.String("json", "", "also write the columbas-bench/v1 JSON report (per-phase breakdown) to this file")
		workers  = flag.Int("workers", 0, "branch-and-bound workers per Columba S solve (0/1: sequential, -1: all cores)")
		noWarm   = flag.Bool("no-warmstart", false, "solve every branch-and-bound LP cold instead of warm-starting from the parent basis (ablation)")
		noPre    = flag.Bool("no-presolve", false, "disable MILP presolve (bound tightening, redundant rows, coefficient strengthening) (ablation)")
		noDelta  = flag.Bool("no-delta", false, "disable the delta-aware warm-start pipeline: ignore any donor hint, solve cold (ablation)")
		pprofCPU = flag.String("pprof-cpu", "", "write a CPU profile of the whole run to this file")
		pprofMem = flag.String("pprof-mem", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *workers < -1 {
		return fmt.Errorf("-workers must be -1 (all cores), 0/1 (sequential) or a worker count, got %d", *workers)
	}

	if *pprofCPU != "" {
		stop, err := obs.StartCPUProfile(*pprofCPU)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *pprofMem != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*pprofMem); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.STime = *stime
	cfg.BTime = *btime
	cfg.SkipBaseline = *noBase
	cfg.Workers = *workers
	cfg.NoWarmStart = *noWarm
	cfg.NoPresolve = *noPre
	cfg.NoDelta = *noDelta
	if *quick {
		cfg.StallLimit = 40
	}

	if *fig1 {
		return runFig1(cfg)
	}

	var cs []cases.Case
	if *caseList == "" {
		cs = cases.Table1()
	} else {
		for _, id := range strings.Split(*caseList, ",") {
			c, err := cases.Get(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			cs = append(cs, c)
		}
	}

	fmt.Println("Table 1: design features, Columba 2.0 baseline vs Columba S")
	fmt.Printf("budgets: S %v, baseline %v; solver: internal branch-and-bound (see DESIGN.md)\n\n", cfg.STime, cfg.BTime)
	var rows []*bench.Row
	for _, c := range cs {
		fmt.Fprintf(os.Stderr, "running %s (#u=%d)...\n", c.ID, c.Units)
		rows = append(rows, bench.RunCase(c, cfg))
	}
	fmt.Println(bench.FormatTable(rows))
	fmt.Println("qualitative trends (Section 4):")
	fmt.Println(bench.TrendReport(rows))
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(bench.FormatCSV(rows)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		doc, err := bench.FormatJSON(rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	return nil
}

// runFig1 reproduces the Figure 1 comparison: the kinase-activity design
// under Columba 2.0 (a) and Columba S (b).
func runFig1(cfg bench.Config) error {
	c, err := cases.Get("kinase21")
	if err != nil {
		return err
	}
	fmt.Println("Figure 1: kinase-activity application [17], Columba 2.0 vs Columba S")
	fmt.Println("paper: (a) 2.0: 56 s, 22 inlets, 58.9 mm flow; (b) S: 0.9 s, 18 inlets, 39.85 mm flow")
	fmt.Println()
	row := bench.RunCase(c, cfg)
	if row.Err != nil {
		return row.Err
	}
	if row.Baseline != nil && !row.Baseline.TooLarge {
		fmt.Printf("(a) Columba 2.0: %8.1f s, %d control inlets + fluid ports, L_f %.2f mm, %.1f x %.1f mm\n",
			row.Baseline.Runtime.Seconds(), row.Baseline.CtrlInlets, row.Baseline.FlowMM,
			row.Baseline.WidthMM, row.Baseline.HeightMM)
	}
	m := row.S1.Metrics
	fmt.Printf("(b) Columba S:   %8.1f s, %d control inlets (+%d fluid ports), L_f %.2f mm, %.1f x %.1f mm\n",
		m.Runtime.Seconds(), m.CtrlInlets, m.FluidPorts, m.FlowMM, m.WidthMM, m.HeightMM)
	if row.Baseline != nil && !row.Baseline.TooLarge {
		fmt.Printf("\nspeedup: %.0fx; flow reduction: %+.0f%%; inlet reduction: %+.0f%%\n",
			row.Baseline.Runtime.Seconds()/m.Runtime.Seconds(),
			(m.FlowMM-row.Baseline.FlowMM)/row.Baseline.FlowMM*100,
			float64(m.CtrlInlets-row.Baseline.CtrlInlets)/float64(row.Baseline.CtrlInlets)*100)
	}
	return nil
}
