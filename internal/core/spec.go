package core

import (
	"fmt"
	"time"

	"columbas/internal/layout"
	"columbas/internal/netlist"
)

// OptionSpecSchema identifies the wire form of a synthesis option set —
// the "options" object of a columbas-jobrequest/v1 envelope. The schema
// field is optional on input; when present it must match.
const OptionSpecSchema = "columbas-options/v1"

// OptionSpec is the user-facing form of Options: every tunable knob as a
// flat, JSON- and flag-friendly value. It is the single decode/validate
// point shared by the columbas CLI (flags map onto it), the columbasd
// /v2 job API (request bodies embed it verbatim) and the deprecated /v1
// query parameters (aliases mapped onto it). Apply translates a spec
// onto a base Options, so server-side defaults (worker caps, ablation
// modes) survive unless the spec overrides them.
//
// The zero value is the empty override: Apply returns the base
// unchanged.
type OptionSpec struct {
	// Schema, when non-empty, must be OptionSpecSchema.
	Schema string `json:"schema,omitempty"`
	// Muxes overrides the netlist's multiplexer count (1 or 2; 0 keeps
	// the netlist's own value). It is applied to the netlist, not the
	// Options — see ApplyNetlist.
	Muxes int `json:"muxes,omitempty"`
	// Time is the MILP generation budget as a duration string ("30s").
	// Exceeding it degrades to the greedy seed; it never fails the run.
	Time string `json:"time,omitempty"`
	// Effort is the placement effort: "full", "guided", "seed" or
	// "auto" (empty means auto).
	Effort string `json:"effort,omitempty"`
	// Workers is the branch-and-bound parallelism: 0 keeps the base
	// value, -1 means all cores, >= 1 is an explicit worker count.
	Workers int `json:"workers,omitempty"`
	// NoDRC skips the design-rule check.
	NoDRC bool `json:"nodrc,omitempty"`
	// NoWarmStart and NoPresolve are the solver ablation switches (see
	// layout.Options).
	NoWarmStart bool `json:"no_warmstart,omitempty"`
	NoPresolve  bool `json:"no_presolve,omitempty"`
	// NoDelta disables the delta-aware warm-start path for this request:
	// no similarity-index donor is consulted and any supplied hint is
	// ignored (ablation; see Options.NoDelta).
	NoDelta bool `json:"no_delta,omitempty"`
	// Timeout is the hard wall-clock deadline for the whole request as
	// a duration string. Unlike Time it fails the run when it fires.
	// It is not part of Options (deadlines are transient); callers read
	// it via ParseTimeout.
	Timeout string `json:"timeout,omitempty"`
}

// Validate checks every field without building Options. Apply calls it;
// front ends that only want the verdict (e.g. admission control before
// queueing) can call it directly.
func (sp OptionSpec) Validate() error {
	_, err := sp.Apply(DefaultOptions())
	return err
}

// Apply overlays the spec onto base and returns the resulting Options.
// base is not mutated. Every field is validated; the error messages are
// shared verbatim by the CLI and both HTTP API versions.
func (sp OptionSpec) Apply(base Options) (Options, error) {
	opt := base
	if sp.Schema != "" && sp.Schema != OptionSpecSchema {
		return opt, fmt.Errorf("unsupported options schema %q (want %s)", sp.Schema, OptionSpecSchema)
	}
	if sp.Muxes != 0 && sp.Muxes != 1 && sp.Muxes != 2 {
		return opt, fmt.Errorf("muxes must be 1 or 2")
	}
	if sp.Time != "" {
		d, err := time.ParseDuration(sp.Time)
		if err != nil || d <= 0 {
			return opt, fmt.Errorf("time must be a positive duration (e.g. 30s)")
		}
		opt.Layout.TimeLimit = d
	}
	switch sp.Effort {
	case "", "auto":
	case "full":
		opt.Layout.Effort = layout.EffortFull
		opt.Layout.GuidedThreshold = 0
	case "guided":
		opt.Layout.Effort = layout.EffortGuided
	case "seed":
		opt.Layout.SkipMILP = true
	default:
		return opt, fmt.Errorf("unknown effort %q (want full, guided, seed or auto)", sp.Effort)
	}
	switch {
	case sp.Workers < -1:
		return opt, fmt.Errorf("workers must be -1 (all cores), 0 (default) or a positive count")
	case sp.Workers != 0:
		opt.Layout.Workers = sp.Workers
	}
	if sp.NoDRC {
		opt.RunDRC = false
	}
	if sp.NoWarmStart {
		opt.Layout.NoWarmStart = true
	}
	if sp.NoPresolve {
		opt.Layout.NoPresolve = true
	}
	if sp.NoDelta {
		opt.NoDelta = true
	}
	if _, err := sp.ParseTimeout(); err != nil {
		return opt, err
	}
	return opt, nil
}

// ParseTimeout returns the request deadline encoded in the spec: the
// parsed Timeout duration, or 0 when unset (caller default applies).
func (sp OptionSpec) ParseTimeout() (time.Duration, error) {
	if sp.Timeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(sp.Timeout)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("timeout must be a positive duration (e.g. 10s)")
	}
	return d, nil
}

// ApplyNetlist applies the spec's netlist-level override (the Muxes
// count) onto a parsed netlist.
func (sp OptionSpec) ApplyNetlist(n *netlist.Netlist) error {
	switch sp.Muxes {
	case 0:
	case 1, 2:
		n.Muxes = sp.Muxes
	default:
		return fmt.Errorf("muxes must be 1 or 2")
	}
	return nil
}
