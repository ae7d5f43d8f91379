// Command columbamilp solves an arbitrary MILP instance in MPS form with
// the columbas branch-and-bound engine — the same solver the layout
// pipeline runs, detached from microfluidics entirely.
//
// Usage:
//
//	columbamilp model.mps
//	columbamilp -no-cuts -no-presolve model.mps
//	columbamilp -timeout 10s -workers 4 -stats model.mps
//	gen-emitted instances: see internal/gen.WriteMPS
//
// The instance is read from the positional file argument, or stdin when
// absent. The result goes to stdout as one columbamilp-result/v1 JSON
// document: status, objective (in the instance's stated sense),
// incumbent values by column name, and the solver's SearchStats
// (docs/metrics.md). -stats additionally prints the phase table to
// stderr; -trace-json writes the machine-readable trace.
//
// Exit status: 0 when the solve is conclusive (optimal, infeasible or
// unbounded), 1 on input/usage errors, 2 when the budget expired first
// (status feasible or limit). Errors are one columbamilp-error/v1 JSON
// line on stderr; parse errors carry the 1-based line/column.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"columbas/internal/milp"
	"columbas/internal/mps"
	"columbas/internal/obs"
)

// Wire schemas. The error envelope mirrors columbas-error/v1 (same
// field set) under the CLI's own schema name.
const (
	resultSchema = "columbamilp-result/v1"
	errorSchema  = "columbamilp-error/v1"
)

// result is the stdout document.
type result struct {
	Schema    string             `json:"schema"`
	Instance  string             `json:"instance,omitempty"`
	File      string             `json:"file,omitempty"`
	Status    string             `json:"status"`
	Maximize  bool               `json:"maximize,omitempty"`
	Objective *float64           `json:"objective,omitempty"`
	Bound     *float64           `json:"bound,omitempty"`
	Vars      int                `json:"vars"`
	Ints      int                `json:"ints"`
	Rows      int                `json:"rows"`
	Incumbent map[string]float64 `json:"incumbent,omitempty"`
	Nodes     int                `json:"nodes"`
	RuntimeMS float64            `json:"runtime_ms"`
	Stats     *milp.SearchStats  `json:"stats,omitempty"`
}

// cliError is the single-line stderr envelope.
type cliError struct {
	Schema  string `json:"schema"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so the integration tests
// drive it directly. It returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("columbamilp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		noCuts    = fs.Bool("no-cuts", false, "disable root cutting planes (Gomory + cover)")
		noPre     = fs.Bool("no-presolve", false, "disable MILP presolve (bound tightening, redundant rows, coefficient strengthening)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel branch-and-bound workers (1: sequential, -1: all cores)")
		timeout   = fs.Duration("timeout", 0, "wall-clock solve budget; 0 means none")
		stats     = fs.Bool("stats", false, "print the per-phase statistics table (docs/metrics.md) to stderr")
		traceJSON = fs.String("trace-json", "", "write the phase trace as JSON (schema columbas-trace/v1) to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: columbamilp [flags] [model.mps]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1 // flag already printed the message
	}
	if fs.NArg() > 1 {
		return fail(stderr, "usage", fmt.Errorf("at most one input file, got %d", fs.NArg()))
	}

	// The solver reads any negative worker count as "all cores" and a
	// non-positive budget as "none", so out-of-range values are refused
	// here instead of silently meaning something else.
	if *workers < -1 {
		return fail(stderr, "invalid_option", fmt.Errorf("-workers must be -1 (all cores), 0/1 (sequential) or a worker count, got %d", *workers))
	}
	if *timeout < 0 {
		return fail(stderr, "invalid_option", fmt.Errorf("-timeout must be 0 (no budget) or a positive duration, got %v", *timeout))
	}
	opt := milp.Options{
		NoCuts:     *noCuts,
		NoPresolve: *noPre,
		Workers:    *workers,
		TimeLimit:  *timeout,
	}

	file := ""
	var err error
	var in *mps.Instance
	if fs.NArg() == 1 {
		file = fs.Arg(0)
		in, err = mps.ParseFile(file)
	} else {
		in, err = mps.Parse(stdin)
	}
	if err != nil {
		return fail(stderr, "mps_parse", err)
	}

	var tr *obs.Trace
	if *stats || *traceJSON != "" {
		name := in.Name
		if name == "" && file != "" {
			name = filepath.Base(file)
		}
		tr = obs.New(name)
	}
	solveSp := tr.Phase("solve")
	r, err := in.Model.Solve(opt)
	if err != nil {
		solveSp.End()
		return fail(stderr, "solve", err)
	}
	solveSp.SetInt("nodes", int64(r.Nodes))
	solveSp.End()

	res := result{
		Schema:   resultSchema,
		Instance: in.Name,
		File:     file,
		Status:   r.Status.String(),
		Maximize: in.Maximize,
		Vars:     in.Model.NumVars(),
		Ints:     in.Model.NumInt(),
		Rows:     in.Model.NumRows(),
		Nodes:    r.Nodes,
		Stats:    &r.Stats,
	}
	res.RuntimeMS = float64(r.Runtime) / float64(time.Millisecond)
	if r.Status == milp.Optimal || r.Status == milp.Feasible {
		obj := in.Objective(r.Obj)
		res.Objective = &obj
		res.Incumbent = make(map[string]float64, in.Model.NumVars())
		for v := 0; v < in.Model.NumVars(); v++ {
			res.Incumbent[in.Model.Name(milp.VarID(v))] = r.X[v]
		}
	}
	if r.Status == milp.Optimal || r.Status == milp.Feasible || r.Status == milp.Limit {
		// The dual bound converts like the objective (sense flip under
		// maximization turns the lower bound into an upper one). A search
		// stopped before its root LP has no bound yet (±Inf) — JSON has
		// no encoding for that, so the field is omitted.
		if bound := in.Objective(r.Bound); !math.IsInf(bound, 0) {
			res.Bound = &bound
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fail(stderr, "encode", err)
	}

	tr.Finish()
	if *stats {
		if err := tr.WriteTable(stderr); err != nil {
			return fail(stderr, "stats", err)
		}
	}
	if *traceJSON != "" {
		if err := writeTrace(tr, *traceJSON); err != nil {
			return fail(stderr, "trace", err)
		}
	}

	switch r.Status {
	case milp.Optimal, milp.Infeasible, milp.Unbounded:
		return 0
	default:
		// Feasible/Limit: the budget (only -timeout here) expired before
		// the search was conclusive.
		fail(stderr, "timeout", fmt.Errorf("budget expired with status %s", r.Status))
		return 2
	}
}

func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail prints the one-line error envelope and returns exit code 1.
func fail(stderr io.Writer, code string, err error) int {
	e := cliError{Schema: errorSchema, Code: code, Message: err.Error()}
	var pe *mps.ParseError
	if errors.As(err, &pe) {
		e.Line, e.Col = pe.Line, pe.Col
	}
	raw, merr := json.Marshal(e)
	if merr != nil {
		fmt.Fprintln(stderr, "columbamilp:", err)
		return 1
	}
	fmt.Fprintln(stderr, string(raw))
	return 1
}
