package server

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"columbas/internal/core"
)

// JobRequestSchema identifies the POST /v2/jobs request envelope.
const JobRequestSchema = "columbas-jobrequest/v1"

// JobRequest is the columbas-jobrequest/v1 envelope: netlist source
// plus the shared options spec. The same OptionSpec drives the
// columbas CLI flags and (as deprecated query aliases) /v1/synthesize,
// so every surface validates options identically.
type JobRequest struct {
	// Schema, when non-empty, must be JobRequestSchema.
	Schema string `json:"schema,omitempty"`
	// Netlist is the netlist source text.
	Netlist string `json:"netlist"`
	// Format optionally pins the job's default render format; GET
	// /v2/jobs/{id}/result still negotiates per request.
	Format string `json:"format,omitempty"`
	// Options is the synthesis option set (columbas-options/v1).
	Options core.OptionSpec `json:"options"`
}

// specFromQuery maps the deprecated /v1 query parameters onto the
// shared OptionSpec. Only the historical v1 names are accepted here;
// the error messages are pinned by the v1 test suite.
func specFromQuery(q url.Values) (core.OptionSpec, error) {
	var sp core.OptionSpec
	if v := q.Get("muxes"); v != "" {
		mx, err := strconv.Atoi(v)
		if err != nil || (mx != 1 && mx != 2) {
			return sp, fmt.Errorf("muxes must be 1 or 2")
		}
		sp.Muxes = mx
	}
	sp.Time = q.Get("time")
	sp.Effort = q.Get("effort")
	if v := q.Get("workers"); v != "" {
		wk, err := strconv.Atoi(v)
		if err != nil || wk < 1 {
			// v1 never accepted -1; the JSON envelope does.
			return sp, fmt.Errorf("workers must be a positive integer")
		}
		sp.Workers = wk
	}
	switch v := q.Get("nodrc"); v {
	case "", "0", "false":
	case "1", "true":
		sp.NoDRC = true
	default:
		return sp, fmt.Errorf("nodrc must be boolean")
	}
	sp.Timeout = q.Get("timeout")
	return sp, nil
}

// resolveOptions overlays a request spec onto this server's configured
// defaults and applies the server-side clamps: the MILP budget never
// exceeds MaxLayoutTime and clients may lower, never raise, the worker
// count. The returned timeout is the job's wall-clock budget
// (DefaultTimeout when the spec carries none; 0 = no deadline).
func (s *Server) resolveOptions(sp core.OptionSpec) (core.Options, time.Duration, error) {
	base := core.DefaultOptions()
	base.Layout.Workers = s.cfg.Workers
	base.Layout.NoPresolve = s.cfg.NoPresolve
	base.NoDelta = s.cfg.NoDelta
	opt, err := sp.Apply(base)
	if err != nil {
		return opt, 0, err
	}
	if opt.Layout.TimeLimit > s.cfg.MaxLayoutTime {
		opt.Layout.TimeLimit = s.cfg.MaxLayoutTime
	}
	if opt.Layout.Workers < 0 || opt.Layout.Workers > s.cfg.Workers {
		opt.Layout.Workers = s.cfg.Workers
	}
	timeout, err := sp.ParseTimeout()
	if err != nil {
		return opt, 0, err
	}
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	return opt, timeout, nil
}
