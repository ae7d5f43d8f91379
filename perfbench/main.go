// Command perfbench is the repository's benchmark. It drives the three
// ways the system is used — the library path on the paper's Table 1
// cases (table1), the same path at 256-lane scale (scale), and columbasd
// edit sessions over loopback HTTP (serve) — checks every output, and
// prints one JSON result line. See README.md for the workloads, the
// metrics and the noise they are built against.
//
//	perfbench --workload table1 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart anchors setup_s: the first setup round is timed from here.
var processStart = time.Now()

// config is one run's settings. The fields after outDir exist for the
// benchmark's own tests.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string

	smoke bool // tiny inputs and schedules
	// tamper, when set, may alter the fingerprint of each repeated
	// input before the determinism check compares it.
	tamper func(name string, fp *fingerprint)
	// timeLimit, when non-zero, replaces the layout budget of timed jobs.
	timeLimit time.Duration
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is everything a run measured, written to the report file.
type runReport struct {
	Schema   string         `json:"schema"`
	Meta     runMeta        `json:"meta"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	Designs  []designRow    `json:"designs"`
	Classes  []classRow     `json:"classes,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Spans    []span         `json:"spans,omitempty"`
}

// designRow is one design's line in the report: its timing and the
// quality and counters of its (first) checked synthesis.
type designRow struct {
	Name     string      `json:"name"`
	Samples  int         `json:"samples"`
	MedianMS float64     `json:"median_ms"`
	Checked  bool        `json:"drc_clean"`
	FP       fingerprint `json:"design"`
}

// classRow summarizes one request class of the serve workload.
type classRow struct {
	Class string  `json:"class"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
}

const reportSchema = "columbas-perfbench/v1"

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, scale or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured time per run in seconds")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/reports", "directory for the run report")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its report.
func run(ctx context.Context, cfg config) (*runReport, error) {
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	var rep *runReport
	var err error
	switch cfg.workload {
	case "table1", "scale":
		rep, err = runPipeline(ctx, cfg)
	case "serve":
		rep, err = runServe(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want table1, scale or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.Schema = reportSchema
	rep.Meta = newRunMeta(cfg)
	return rep, nil
}

// writeReport writes the report (spans included) as JSON under outDir.
func writeReport(cfg config, rep *runReport) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
