// Command columbas synthesizes a manufacturing-ready mLSI design from a
// plain-text netlist description, reproducing the Columba S flow
// (Figure 5): planarization, layout generation, layout validation,
// multiplexer synthesis and result interpretation.
//
// Usage:
//
//	columbas -i app.netlist -o design.svg
//	columbas -i app.netlist -o design.scr -muxes 2 -time 60s
//	columbas -i app.netlist -stats -trace-json trace.json
//	columbas -i app.netlist -pprof-cpu cpu.out -pprof-mem mem.out
//
// The output format follows the -o extension (.svg, .scr, .json) unless
// -format overrides it. With no -o the design summary goes to stdout.
// -stats prints the per-phase observability table (docs/metrics.md) to
// stderr; -trace-json writes the same data machine-readably.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"columbas/internal/core"
	"columbas/internal/export"
	"columbas/internal/hls"
	"columbas/internal/netlist"
	"columbas/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "columbas:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("i", "", "input netlist description (default: stdin)")
		out       = flag.String("o", "", "output file (.svg/.scr/.json); default: summary to stdout")
		format    = flag.String("format", "", "output format override: "+strings.Join(export.Names(), ", "))
		muxes     = flag.Int("muxes", 0, "override the netlist's multiplexer count (1 or 2)")
		tl        = flag.Duration("time", 30*time.Second, "layout generation time budget")
		effort    = flag.String("effort", "auto", "placement effort: full, guided, seed or auto")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel branch-and-bound workers for layout generation (1: sequential, -1: all cores)")
		noWarm    = flag.Bool("no-warmstart", false, "solve every branch-and-bound LP cold instead of warm-starting from the parent basis (ablation)")
		noPre     = flag.Bool("no-presolve", false, "disable MILP presolve (bound tightening, redundant rows, coefficient strengthening) (ablation)")
		noDelta   = flag.Bool("no-delta", false, "ignore any delta warm-start donor and solve cold (ablation)")
		noDRC     = flag.Bool("nodrc", false, "skip the design-rule check")
		stats     = flag.Bool("stats", false, "print the per-phase statistics table (docs/metrics.md) to stderr")
		traceJSON = flag.String("trace-json", "", "write the phase trace as JSON (schema columbas-trace/v1) to this file")
		pprofCPU  = flag.String("pprof-cpu", "", "write a CPU profile of the whole run to this file")
		pprofMem  = flag.String("pprof-mem", "", "write a heap profile at exit to this file")
		plan      = flag.String("plan", "", "also write the generation-phase rectangle plan (Figure 6(b)) as SVG to this file")
		assay     = flag.Bool("assay", false, "input is an assay description (high-level synthesis front end)")
	)
	flag.Parse()

	// The flags map onto the same OptionSpec the columbasd HTTP API
	// decodes, so validation and option semantics are identical across
	// both front ends.
	spec := core.OptionSpec{
		Muxes:       *muxes,
		Time:        tl.String(),
		Effort:      *effort,
		Workers:     *workers,
		NoDRC:       *noDRC,
		NoWarmStart: *noWarm,
		NoPresolve:  *noPre,
		NoDelta:     *noDelta,
	}
	opt, err := spec.Apply(core.DefaultOptions())
	if err != nil {
		return err
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
				fmt.Fprintln(os.Stderr, "columbas:", err)
			}
		}()
	}

	var tr *obs.Trace // nil unless requested: tracing stays off by default
	if *stats || *traceJSON != "" {
		name := "stdin"
		if *in != "" {
			name = filepath.Base(*in)
		}
		tr = obs.New(name)
	}

	var src *os.File
	if *in == "" {
		src = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	parseSp := tr.Phase("parse")
	var n *netlist.Netlist
	if *assay {
		a, aerr := hls.Parse(src)
		if aerr != nil {
			parseSp.End()
			return aerr
		}
		if n, err = a.Compile(); err != nil {
			parseSp.End()
			return err
		}
		fmt.Fprintf(os.Stderr, "assay %s: %d operation(s), %d lane(s) -> %d unit(s)\n",
			a.Name, a.Ops(), a.Lanes(), n.NumUnits())
	} else if n, err = netlist.Parse(src); err != nil {
		parseSp.End()
		return err
	}
	parseSp.SetInt("units", int64(n.NumUnits()))
	parseSp.End()
	tr.SetName(n.Name)
	if err := spec.ApplyNetlist(n); err != nil {
		return err
	}
	opt.Trace = tr

	res, err := core.Synthesize(n, opt)
	if err != nil {
		return err
	}
	m := res.Metrics()
	fmt.Fprintf(os.Stderr, "%s: %d unit(s), %d-MUX — %.2f x %.2f mm, L_f %.2f mm, %d control inlet(s), %s\n",
		m.Name, m.Units, m.Muxes, m.WidthMM, m.HeightMM, m.FlowMM, m.CtrlInlets,
		obs.FormatDuration(m.Runtime))
	if res.DRC != nil {
		fmt.Fprintf(os.Stderr, "drc: %d rule(s) checked, %d violation(s)\n",
			res.DRC.Checked, len(res.DRC.Violations))
	}
	if *plan != "" {
		pf, err := os.Create(*plan)
		if err != nil {
			return err
		}
		if err := res.WritePlanSVG(pf); err != nil {
			pf.Close()
			return err
		}
		pf.Close()
	}

	if err := writeOutput(res, tr, *out, *format); err != nil {
		return err
	}
	tr.Finish()
	if *stats {
		if err := tr.WriteTable(os.Stderr); err != nil {
			return err
		}
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceJSON)
	}
	return nil
}

// writeOutput renders the result in the requested format, recording the
// work as the trace's "export" phase.
func writeOutput(res *core.Result, tr *obs.Trace, out, format string) error {
	f := format
	if f == "" && out != "" {
		f = strings.TrimPrefix(filepath.Ext(out), ".")
	}
	var w *os.File
	if out == "" {
		w = os.Stdout
		if f == "" {
			f = "json"
		}
	} else {
		var err error
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	fm, ok := export.Lookup(f)
	if !ok {
		return fmt.Errorf("unknown output format %q (want one of %s)",
			f, strings.Join(export.Names(), ", "))
	}
	sp := tr.Phase("export")
	sp.Label("format", fm.Name)
	defer sp.End()
	return fm.Write(w, res.Design, res.Plan)
}
