package layout

import (
	"columbas/internal/geom"
	"columbas/internal/lp"
)

// WarmHint is the donor payload of the delta-aware pipeline: everything a
// previously solved, structurally similar design can lend a new solve.
// Hints are advisory on every axis — geometry is matched by rect name and
// validated before use, active pairs are re-filtered through the current
// model's needDisjunction, and the root basis goes through the LP
// kernel's compatibility check — so a stale or wrongly shaped hint can
// only cost the validation work, never correctness.
type WarmHint struct {
	// Boxes holds the donor's solved geometry (µm) keyed by rect name,
	// and Tops the donor's control-boundary choice for 2-MUX designs.
	// Rects the recipient model has but the donor lacked keep their
	// greedy seed geometry; a mixed vector that fails the MILP's
	// feasibility check is silently dropped.
	Boxes map[string]geom.Rect
	Tops  map[string]bool
	// ActivePairs names the rect pairs whose non-overlap disjunctions
	// the donor's lazy separation loop converged on. Seeding them up
	// front skips the separation rounds that would rediscover them.
	ActivePairs [][2]string
	// RootBasis is the donor's final root LP basis; dimension mismatches
	// fall back to a cold solve inside the LP kernel.
	RootBasis *lp.Basis
}

// HintFromPlan harvests a WarmHint from a solved plan: the rect geometry
// as placed, the converged active pair set, and the final MILP round's
// root basis. Callers chain it into the next similar solve via
// Options.Warm. Returns nil on a nil plan.
func HintFromPlan(p *Plan) *WarmHint {
	if p == nil {
		return nil
	}
	h := &WarmHint{
		Boxes:       make(map[string]geom.Rect, len(p.Rects)),
		Tops:        make(map[string]bool),
		ActivePairs: p.pairNames(),
		RootBasis:   p.RootBasis,
	}
	for _, r := range p.Rects {
		h.Boxes[r.Name] = r.Box
		if r.Kind == RCtrl {
			h.Tops[r.Name] = r.CtrlTop
		}
	}
	return h
}

// hintPairs maps the donor's active pair names into the current model's
// rect indices, dropping pairs whose names no longer resolve or whose
// disjunction the attachment structure already settles. The returned
// pairs are normalized (i < j) and deduplicated against have.
func (b *builder) hintPairs(h *WarmHint, have map[[2]int]bool) [][2]int {
	if h == nil || len(h.ActivePairs) == 0 {
		return nil
	}
	nameIdx := make(map[string]int, len(b.rects))
	for i, r := range b.rects {
		nameIdx[r.Name] = i
	}
	var out [][2]int
	for _, np := range h.ActivePairs {
		i, oki := nameIdx[np[0]]
		j, okj := nameIdx[np[1]]
		if !oki || !okj || i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		p := [2]int{i, j}
		if have[p] || !b.needDisjunction(i, j) {
			continue
		}
		have[p] = true
		out = append(out, p)
	}
	return out
}

// packPairs copies the active pair indices into the plan's compact,
// exactly sized form (nil when there are none).
func packPairs(active [][2]int) [][2]int32 {
	if len(active) == 0 {
		return nil
	}
	out := make([][2]int32, len(active))
	for k, pr := range active {
		out[k] = [2]int32{int32(pr[0]), int32(pr[1])}
	}
	return out
}

// pairNames maps the plan's active pair indices back to rect names —
// the stable identity a donor hint carries across edits.
func (p *Plan) pairNames() [][2]string {
	if len(p.ActivePairs) == 0 {
		return nil
	}
	out := make([][2]string, len(p.ActivePairs))
	for k, pr := range p.ActivePairs {
		out[k] = [2]string{p.Rects[pr[0]].Name, p.Rects[pr[1]].Name}
	}
	return out
}

// hintGeometry resolves the donor geometry against the current model's
// rects: matched names take the donor box, everything else keeps the
// greedy seed. matched[i] marks the rects that took a donor box — the
// pairs the donor can order (see deltaFixedPairs) — and the boolean
// reports whether any box matched at all (a hint from an unrelated
// design matches nothing and is not worth a vector build).
func (b *builder) hintGeometry(h *WarmHint) (boxes []geom.Rect, tops []bool, matched []bool, any bool) {
	if h == nil || len(h.Boxes) == 0 {
		return nil, nil, nil, false
	}
	boxes = make([]geom.Rect, len(b.rects))
	copy(boxes, b.seedBoxes)
	tops = make([]bool, len(b.rects))
	copy(tops, b.seedTops)
	matched = make([]bool, len(b.rects))
	for i, r := range b.rects {
		if bx, ok := h.Boxes[r.Name]; ok {
			boxes[i] = bx
			matched[i] = true
			any = true
		}
		if t, ok := h.Tops[r.Name]; ok {
			tops[i] = t
		}
	}
	return boxes, tops, matched, any
}

// deltaFixedPairs selects the active pairs whose relative order the donor
// geometry can fix in place of a disjunction: both rects took a donor box,
// so the donor's overlap-free placement implies a valid ordering. Pairs
// touching a rect the donor did not place (an added or renamed unit — the
// edit neighborhood) are left out and keep their full disjunctions.
func deltaFixedPairs(fixed map[[2]int]bool, pairs [][2]int, matched []bool) {
	for _, p := range pairs {
		if matched[p[0]] && matched[p[1]] {
			fixed[p] = true
		}
	}
}

// hintVector derives a MILP Start assignment from the donor geometry by
// running seedVector over a temporary snapshot swap. Must run after
// buildMILP (it reads the round's variable ids). The caller validates
// the result with the model's feasibility check before offering it.
func (b *builder) hintVector(boxes []geom.Rect, tops []bool) []float64 {
	saveBoxes, saveTops := b.seedBoxes, b.seedTops
	b.seedBoxes, b.seedTops = boxes, tops
	x := b.seedVector()
	b.seedBoxes, b.seedTops = saveBoxes, saveTops
	return x
}
