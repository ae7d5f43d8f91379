package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as these
// tests read it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile holds the metric tables in
// metrics.go and BENCHMARK.json together: same names, same units.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, table map[string]string) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table has %d", kind, len(listed), len(table))
		}
		for _, m := range listed {
			if unit, ok := table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, table has [%s]", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndUnits)
	check("per_layer", bf.PerLayer, perLayerUnits)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "table1,scale,serve" {
		t.Errorf("workloads = %s", got)
	}
}

// notRun lists the per-layer metrics of layers a workload never runs;
// they read 0 with no samples there.
func notRun(workload, name string) bool {
	if workload == "serve" {
		return name == "netlist.parse_ms" || strings.HasPrefix(name, "export.")
	}
	return strings.HasPrefix(name, "server.")
}

// TestSmokeWorkloads runs a tiny version of every workload, untraced and
// traced, and checks the result line: correct, nothing failed, and every
// named metric present with its unit and a sample count.
func TestSmokeWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d failures=%q",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				n, counted := rep.Samples[m.Name]
				switch {
				case !ok || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				case !counted:
					t.Errorf("%s trace=%v: metric %s has no sample count", w.Name, trace, m.Name)
				case trace && notRun(w.Name, m.Name):
					if got.Value != 0 || n != 0 {
						t.Errorf("%s: %s = %v over %d samples, want 0 (layer not run)", w.Name, m.Name, got.Value, n)
					}
				case n < 1:
					t.Errorf("%s trace=%v: metric %s has %d samples", w.Name, trace, m.Name, n)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace && len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// TestCounterMismatchIsFailure forces a repeated input to report
// different solver counters: each such repeat is a failed op and the run
// is not correct.
func TestCounterMismatchIsFailure(t *testing.T) {
	warm := warmInput("scale").name
	cfg := config{workload: "scale", seed: 7, seconds: 1, smoke: true, outDir: t.TempDir(),
		tamper: func(name string, fp *fingerprint) {
			if name != warm {
				fp.Pivots++
			}
		}}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want some (not all) failed and not correct",
			res.Correct, res.Attempted, res.Failed)
	}
	for _, f := range rep.Failures {
		if !strings.Contains(f, "counters differ") {
			t.Errorf("unexpected failure %q", f)
		}
	}
}

// TestBudgetEndedJobIsFailure gives every timed job a layout budget it
// cannot meet: each job is a failed op, none enters the metrics.
func TestBudgetEndedJobIsFailure(t *testing.T) {
	cfg := config{workload: "table1", seed: 7, seconds: 1, smoke: true, outDir: t.TempDir(), timeLimit: time.Nanosecond}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result
	if res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("attempted=%d failed=%d, want every job failed", res.Attempted, res.Failed)
	}
	for _, f := range rep.Failures {
		if !strings.Contains(f, "budget") {
			t.Errorf("failure %q is not a budget failure", f)
		}
	}
	if v := res.Metrics["synth_geomean_ms"].Value; v != 0 {
		t.Errorf("synth_geomean_ms = %v from failed jobs only", v)
	}
}

// TestSelfTime checks the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to the parent.
func TestSelfTime(t *testing.T) {
	rec := &recorder{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 10},
		{Name: "submit", Parent: 0, Start: 0, End: 2},
		{Name: "queue", Parent: 0, Start: 1, End: 3},
		{Name: "run", Parent: 0, Start: 3, End: 7},
		{Name: "notify", Parent: 0, Start: 9, End: 12},
	}}
	spans := rec.finish()
	if got := spans[0].Self; got != 2 {
		t.Errorf("op self = %v, want 2 (10 − [0,7] − [9,10])", got)
	}
	if got := spans[1].Self; got != 2 {
		t.Errorf("leaf self = %v, want its duration 2", got)
	}
}
