package server

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"columbas/internal/core"
	"columbas/internal/netlist"
)

// designFP is the structural fingerprint behind the delta-aware warm-start
// index: a per-unit content hash, the canonicalized net multiset, a hash of
// every non-weight option that shapes the layout model, and the objective
// weight vector kept separate. Two requests whose exact cache keys differ
// can still be near misses here — "same netlist, different α/β/γ/κ"
// resolves to structural distance 0, and a one-unit edit (add, remove,
// resize, reconnect) to a small positive distance — and near misses warm
// start from the donor instead of solving cold.
type designFP struct {
	// units maps unit name to a hash of its type, mixer option and
	// footprint override; nets counts canonical net tokens (multiset —
	// duplicate connections are legal).
	units map[string]uint64
	nets  map[string]int
	// optHash folds in everything that must match exactly for a donor
	// plan to be worth borrowing: mux count, parallel groups, effort
	// shape, and the model-shaping layout options other than the
	// objective weights.
	optHash uint64
	// weights is (α, β, γ, κ) — excluded from optHash so weight sweeps
	// over one netlist land at structural distance 0.
	weights [4]float64
}

// maxDeltaDistance is the similarity admission bound: the largest
// structural distance at which a cached design still donates a warm
// hint. A single unit edit costs at most ~4 (one unit row plus the net
// tokens it rewires), so 8 comfortably covers "one or two edits away"
// while rejecting unrelated designs, which differ in nearly every token.
const maxDeltaDistance = 8

// newDesignFP fingerprints a validated request.
func newDesignFP(n *netlist.Netlist, opt core.Options) *designFP {
	fp := &designFP{
		units: make(map[string]uint64, len(n.Units)),
		nets:  make(map[string]int, len(n.Nets)),
	}
	for _, u := range n.Units {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%g|%g", u.Type, u.Opt, u.W, u.H)
		fp.units[u.Name] = h.Sum64()
	}
	for _, nt := range n.Nets {
		eps := make([]string, 0, len(nt.Endpoints))
		for _, e := range nt.Endpoints {
			eps = append(eps, e.String())
		}
		sort.Strings(eps)
		tok := ""
		for _, e := range eps {
			tok += e + ";"
		}
		fp.nets[tok]++
	}
	oh := fnv.New64a()
	fmt.Fprintf(oh, "muxes=%d", n.Muxes)
	for _, g := range n.Parallel {
		gs := append([]string(nil), g...)
		sort.Strings(gs)
		fmt.Fprintf(oh, "|par=%v", gs)
	}
	lo := opt.Layout
	fmt.Fprintf(oh, "|eff=%d|gthr=%d|skip=%t|noseed=%t|eager=%t|nows=%t|nopre=%t",
		lo.Effort, lo.GuidedThreshold, lo.SkipMILP, lo.NoSeed, lo.EagerSeparation,
		lo.NoWarmStart, lo.NoPresolve)
	fp.optHash = oh.Sum64()
	fp.weights = [4]float64{lo.Alpha, lo.Beta, lo.Gamma, lo.Kappa}
	return fp
}

// distance returns the structural edit distance between two fingerprints:
// the symmetric difference of the unit sets (a renamed or resized unit
// counts on both sides it differs on) plus the multiset symmetric
// difference of the net tokens. Incompatible option hashes — different
// mux counts, parallel groups or model-shaping options — are reported as
// -1: no hint is worth borrowing across them.
func (a *designFP) distance(b *designFP) int {
	if a.optHash != b.optHash {
		return -1
	}
	d := 0
	for name, h := range a.units {
		if bh, ok := b.units[name]; !ok {
			d++
		} else if bh != h {
			d++
		}
	}
	for name := range b.units {
		if _, ok := a.units[name]; !ok {
			d++
		}
	}
	for tok, ca := range a.nets {
		cb := b.nets[tok]
		if ca > cb {
			d += ca - cb
		}
	}
	for tok, cb := range b.nets {
		ca := a.nets[tok]
		if cb > ca {
			d += cb - ca
		}
	}
	return d
}

// weightDistance is the L1 distance between the objective weight vectors
// — the tie-break when several donors are structurally equidistant, and
// the whole story for a weight sweep (structural distance 0).
func (a *designFP) weightDistance(b *designFP) float64 {
	d := 0.0
	for i := range a.weights {
		d += math.Abs(a.weights[i] - b.weights[i])
	}
	return d
}

// similar scans the cached entries for the nearest donor to fp: minimum
// structural distance within maxDeltaDistance, ties broken by weight
// distance, then by recency (scan order is most-recently-used first).
// Every call counts as exactly one similarity hit or miss.
func (c *resultCache) similar(fp *designFP) *core.Result {
	if fp == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *cacheEntry
	bestD := -1
	bestW := 0.0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.fp == nil {
			continue
		}
		d := fp.distance(ent.fp)
		if d < 0 || d > maxDeltaDistance {
			continue
		}
		w := fp.weightDistance(ent.fp)
		if best == nil || d < bestD || (d == bestD && w < bestW) {
			best, bestD, bestW = ent, d, w
		}
	}
	if best == nil {
		c.simMisses++
		return nil
	}
	c.simHits++
	return best.res
}
