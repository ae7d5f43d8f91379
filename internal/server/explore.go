package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"columbas/internal/core"
	"columbas/internal/netlist"
)

// Schemas of the /v2/explore wire documents.
const (
	// ExploreRequestSchema identifies the POST /v2/explore request
	// envelope.
	ExploreRequestSchema = "columbas-explorerequest/v1"
	// ExploreSchema identifies the sweep result document.
	ExploreSchema = "columbas-explore/v1"
)

// maxExploreCells bounds one sweep's grid: the cross product of the four
// weight axes may not exceed it.
const maxExploreCells = 64

// ExploreRequest is the columbas-explorerequest/v1 envelope: one netlist,
// one base option set, and a grid of objective weight vectors to sweep.
type ExploreRequest struct {
	// Schema, when non-empty, must be ExploreRequestSchema.
	Schema string `json:"schema,omitempty"`
	// Netlist is the netlist source text, shared by every cell.
	Netlist string `json:"netlist"`
	// Options is the base synthesis option set; each cell overrides only
	// the objective weights.
	Options core.OptionSpec `json:"options"`
	// Sweep lists the values per weight axis. An empty axis keeps the
	// resolved base value; the grid is the cross product of all four.
	Sweep ExploreSweep `json:"sweep"`
}

// ExploreSweep is the per-axis value lists of a weight sweep.
type ExploreSweep struct {
	Alpha []float64 `json:"alpha,omitempty"`
	Beta  []float64 `json:"beta,omitempty"`
	Gamma []float64 `json:"gamma,omitempty"`
	Kappa []float64 `json:"kappa,omitempty"`
}

// ExploreWeights is one grid cell's objective weight vector.
type ExploreWeights struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
	Kappa float64 `json:"kappa"`
}

// l1 is the weight-space distance used to pick each cell's donor.
func (w ExploreWeights) l1(o ExploreWeights) float64 {
	return math.Abs(w.Alpha-o.Alpha) + math.Abs(w.Beta-o.Beta) +
		math.Abs(w.Gamma-o.Gamma) + math.Abs(w.Kappa-o.Kappa)
}

// ExploreCell is one solved grid cell of the sweep result document. Each
// cell is a real job resource — Job links to /v2/jobs/{id} for its trace
// events and renderable design.
type ExploreCell struct {
	Job     string         `json:"job"`
	Weights ExploreWeights `json:"weights"`
	State   JobState       `json:"state"`
	// Cache is "hit" or "miss"; Donor is the index of the finished cell
	// whose design warm-started this one (-1: solved cold or exact hit).
	Cache string `json:"cache,omitempty"`
	Donor int    `json:"donor"`
	// Metrics is the cell's Table 1 figures of merit on success.
	Metrics *core.Metrics `json:"metrics,omitempty"`
	// WallMS is the cell's synthesis wall time (0 on an exact cache hit).
	WallMS float64   `json:"wall_ms"`
	Error  *ErrorDoc `json:"error,omitempty"`
}

// ExploreDoc is the columbas-explore/v1 response: every cell of the
// sweep plus the Pareto frontier over the Table 1 metrics.
type ExploreDoc struct {
	Schema string        `json:"schema"`
	Name   string        `json:"name"`
	Cells  []ExploreCell `json:"cells"`
	// Frontier indexes the non-dominated cells: no other succeeded cell
	// is at least as good on width, height, flow length and control
	// inlets and strictly better on one.
	Frontier []int `json:"frontier"`
	// WallMS is the end-to-end sweep time; TotalSolveMS sums the per-cell
	// synthesis walls (the figure a cold-vs-warm comparison uses).
	WallMS       float64 `json:"wall_ms"`
	TotalSolveMS float64 `json:"total_solve_ms"`
}

// grid expands the sweep axes into the cell list. Empty axes take the
// base weights.
func (sw ExploreSweep) grid(base ExploreWeights) []ExploreWeights {
	axis := func(vals []float64, def float64) []float64 {
		if len(vals) == 0 {
			return []float64{def}
		}
		return vals
	}
	as := axis(sw.Alpha, base.Alpha)
	bs := axis(sw.Beta, base.Beta)
	gs := axis(sw.Gamma, base.Gamma)
	ks := axis(sw.Kappa, base.Kappa)
	var out []ExploreWeights
	for _, a := range as {
		for _, b := range bs {
			for _, g := range gs {
				for _, k := range ks {
					out = append(out, ExploreWeights{Alpha: a, Beta: b, Gamma: g, Kappa: k})
				}
			}
		}
	}
	return out
}

// validate rejects non-finite or negative axis values before any cell
// runs.
func (sw ExploreSweep) validate() error {
	check := func(name string, vals []float64) error {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("sweep %s values must be finite and non-negative", name)
			}
		}
		return nil
	}
	if err := check("alpha", sw.Alpha); err != nil {
		return err
	}
	if err := check("beta", sw.Beta); err != nil {
		return err
	}
	if err := check("gamma", sw.Gamma); err != nil {
		return err
	}
	return check("kappa", sw.Kappa)
}

// handleExplore is POST /v2/explore: solve one netlist under a grid of
// objective weight vectors as a single job group and return the Pareto
// frontier. The first cell solves cold; every later cell chains a warm
// hint from its nearest already-finished neighbor in weight space, so the
// whole sweep costs one cold solve plus a string of warm ones. Each cell
// still runs through the normal submit path — admission control, the
// result cache and the job store all apply per cell.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErrorRetry(w, http.StatusServiceUnavailable, drainRetryAfter,
			errDoc(CodeDraining, "server is draining"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var er ExploreRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&er); err != nil {
		writeError(w, http.StatusBadRequest,
			errDoc(CodeBadRequest, fmt.Sprintf("decoding explore request: %v", err)))
		return
	}
	if er.Schema != "" && er.Schema != ExploreRequestSchema {
		writeError(w, http.StatusBadRequest, errDoc(CodeBadRequest,
			fmt.Sprintf("unsupported request schema %q (want %s)", er.Schema, ExploreRequestSchema)))
		return
	}
	if err := er.Sweep.validate(); err != nil {
		writeError(w, http.StatusBadRequest, errDoc(CodeInvalidOption, err.Error()))
		return
	}
	n, err := netlist.ParseString(er.Netlist)
	if err != nil {
		writeError(w, http.StatusBadRequest, errDoc(CodeNetlistParse, err.Error()))
		return
	}
	if err := er.Options.ApplyNetlist(n); err != nil {
		writeError(w, http.StatusBadRequest, errDoc(CodeInvalidOption, err.Error()))
		return
	}
	if err := n.Validate(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, errDoc(CodeNetlistInvalid, err.Error()))
		return
	}
	baseOpt, timeout, err := s.resolveOptions(er.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, errDoc(CodeInvalidOption, err.Error()))
		return
	}
	base := ExploreWeights{
		Alpha: baseOpt.Layout.Alpha, Beta: baseOpt.Layout.Beta,
		Gamma: baseOpt.Layout.Gamma, Kappa: baseOpt.Layout.Kappa,
	}
	cells := er.Sweep.grid(base)
	if len(cells) > maxExploreCells {
		writeError(w, http.StatusBadRequest, errDoc(CodeInvalidOption,
			fmt.Sprintf("sweep grid has %d cells (max %d)", len(cells), maxExploreCells)))
		return
	}

	doc := ExploreDoc{
		Schema: ExploreSchema,
		Name:   n.Name,
		Cells:  make([]ExploreCell, 0, len(cells)),
	}
	sweepStart := time.Now()
	// results holds each finished cell's result for donor selection; the
	// explicit chain keeps working even with the result cache disabled.
	results := make([]*core.Result, len(cells))
	for i, wv := range cells {
		opt := baseOpt
		opt.Layout.Alpha, opt.Layout.Beta = wv.Alpha, wv.Beta
		opt.Layout.Gamma, opt.Layout.Kappa = wv.Gamma, wv.Kappa
		cell := ExploreCell{Weights: wv, Donor: -1}
		req := submitRequest{n: n, opt: opt, timeout: timeout}
		if !opt.NoDelta {
			bestD := math.Inf(1)
			for p := 0; p < i; p++ {
				if results[p] == nil {
					continue
				}
				if d := wv.l1(cells[p]); d < bestD {
					bestD, cell.Donor = d, p
				}
			}
			if cell.Donor >= 0 {
				req.warm = results[cell.Donor].WarmHint()
			}
		}
		j, retry, err := s.submit(req)
		if err != nil {
			// Shed or draining mid-sweep: report the refusal on this cell
			// and stop — the finished cells and frontier still go out.
			d := errDoc(CodeOverloaded, err.Error())
			if retry > 0 {
				d.Detail = fmt.Sprintf("estimated wait %s", retry.Round(time.Millisecond))
			}
			cell.State = JobFailed
			cell.Error = d
			doc.Cells = append(doc.Cells, cell)
			break
		}
		cell.Job = j.id
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client hung up: cancel the in-flight cell and give up — the
			// connection cannot carry a response anymore.
			j.cancelJob()
			<-j.done
			return
		}
		st, res, _, edoc, cache := j.outcome()
		cell.State = st
		cell.Error = edoc
		if st == JobSucceeded {
			cell.Cache = cache
			m := res.Metrics()
			cell.Metrics = &m
			if cache != "hit" {
				cell.WallMS = float64(res.Runtime) / float64(time.Millisecond)
				doc.TotalSolveMS += cell.WallMS
			}
			results[i] = res
		} else {
			cell.Donor = -1
		}
		doc.Cells = append(doc.Cells, cell)
	}
	doc.WallMS = float64(time.Since(sweepStart)) / float64(time.Millisecond)
	doc.Frontier = paretoFrontier(doc.Cells)
	writeJSON(w, http.StatusOK, doc)
}

// paretoFrontier returns the indices of the non-dominated succeeded
// cells under minimization of the four Table 1 metrics: chip width,
// height, flow channel length and control inlet count.
func paretoFrontier(cells []ExploreCell) []int {
	point := func(c ExploreCell) ([4]float64, bool) {
		if c.State != JobSucceeded || c.Metrics == nil {
			return [4]float64{}, false
		}
		m := c.Metrics
		return [4]float64{m.WidthMM, m.HeightMM, m.FlowMM, float64(m.CtrlInlets)}, true
	}
	dominates := func(a, b [4]float64) bool {
		strict := false
		for i := range a {
			if a[i] > b[i] {
				return false
			}
			if a[i] < b[i] {
				strict = true
			}
		}
		return strict
	}
	frontier := []int{}
	for i := range cells {
		pi, ok := point(cells[i])
		if !ok {
			continue
		}
		dominated := false
		for jj := range cells {
			if jj == i {
				continue
			}
			pj, ok := point(cells[jj])
			if !ok {
				continue
			}
			// Of identical points, only the first joins the frontier.
			if dominates(pj, pi) || (pj == pi && jj < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, i)
		}
	}
	return frontier
}
