package lp

import "math"

// Gomory mixed-integer (GMI) cut separation from the kernel's own final
// tableau. Branch and bound calls this at the root: after a full-tableau
// optimal solve, every basis row whose basic variable is an integer
// structural at a fractional value yields one valid inequality that the
// current LP optimum violates, derived purely from the tableau row and
// the integrality of the shifted nonbasic variables. The cuts are
// returned over the structural variables (slack contributions are
// substituted back through their defining rows), so the caller can add
// them as ordinary ≤ constraints and re-solve.

// CutRow is one separated valid inequality Σ Terms·x ≤ RHS over the
// problem's structural variables.
type CutRow struct {
	Terms []Term
	RHS   float64
	// Violation is the Euclidean-normalized amount by which the LP point
	// the cut was separated from violates it; callers threshold on it to
	// keep only cuts that cut deeply.
	Violation float64
}

const (
	// gomoryAway: a basic integer variable must be at least this far from
	// integrality before its row is worth cutting on.
	gomoryAway = 0.01
	// cutCoefDrop: coefficients this small relative to the cut's largest
	// are folded into the right-hand side (conservatively, via the
	// variable's bounds) to keep the added rows sparse and stable.
	cutCoefDrop = 1e-11
	// cutMaxDynamic: reject cuts whose coefficient magnitudes span a wider
	// ratio than this — they are numerically untrustworthy.
	cutMaxDynamic = 1e7
	// intDataTol: tolerance for treating row data / bounds as integral.
	intDataTol = 1e-9
)

func nearInt(x float64) bool {
	return math.Abs(x-math.Round(x)) < intDataTol
}

// GomoryCuts derives GMI cuts from the final tableau of the immediately
// preceding solve on this problem, which must have been a full-tableau
// solve (SolveFrom path) that ended Optimal, with no row, bound or cost
// change since. Any other state returns nil. isInt flags the integer
// structural variables; at most max cuts are returned, each violated by
// the current LP optimum by at least minViol (normalized).
func (p *Problem) GomoryCuts(isInt []bool, max int, minViol float64) []CutRow {
	ws := p.ws
	if ws == nil || !ws.tabOptimal || ws.owner != p || ws.rev != p.rev || max <= 0 {
		return nil
	}
	t := &ws.tab
	m, nStru := t.m, t.nStru
	if m == 0 || nStru > len(isInt) {
		return nil
	}
	// Slack integrality: the slack of row r takes integer values at every
	// mixed-integer point iff the row's rhs and coefficients are integral
	// and every variable it touches is integer.
	intSlack := make([]bool, m)
	for i, r := range p.rows {
		ok := nearInt(r.rhs)
		for _, tm := range r.terms {
			if !isInt[tm.Var] || !nearInt(tm.Coef) {
				ok = false
				break
			}
		}
		intSlack[i] = ok
	}
	coef := make([]float64, nStru)
	var out []CutRow
	for i := 0; i < m && len(out) < max; i++ {
		bv := t.basis[i]
		if bv >= nStru || !isInt[bv] {
			continue
		}
		f0 := t.x[bv] - math.Floor(t.x[bv])
		if f0 < gomoryAway || f0 > 1-gomoryAway {
			continue
		}
		if c := p.gomoryFromRow(t, i, f0, isInt, intSlack, coef, minViol); c != nil {
			out = append(out, *c)
		}
	}
	return out
}

// gomoryFromRow derives the GMI cut of tableau row i with fractional
// part f0, writing scratch into coef (length nStru, zeroed on entry and
// exit). Returns nil when the row admits no valid or worthwhile cut.
//
// The derivation works in the shifted nonbasic space: with t_j ≥ 0 the
// distance of nonbasic column j from its resting bound, the tableau row
// reads x_B(i) = x̄_B(i) − Σ ā'_j t_j, and integrality of x_B(i) gives
// the GMI inequality Σ γ_j t_j ≥ f0 with
//
//	γ_j = f_j                 integral t_j, f_j ≤ f0   (f_j = frac(ā'_j))
//	γ_j = f0(1−f_j)/(1−f0)    integral t_j, f_j > f0
//	γ_j = ā'_j                continuous t_j, ā'_j ≥ 0
//	γ_j = −f0·ā'_j/(1−f0)     continuous t_j, ā'_j < 0
//
// which is then substituted back to structural space (t_j = x_j − lo_j,
// hi_j − x_j, or the slack's defining row) and returned in ≤ form.
func (p *Problem) gomoryFromRow(t *tableau, i int, f0 float64, isInt, intSlack []bool, coef []float64, minViol float64) *CutRow {
	nStru := t.nStru
	ratio := f0 / (1 - f0)
	K := 0.0
	rhsRelax := 0.0 // conservative rhs slack from folded-away tiny terms
	defer func() {
		for k := range coef {
			coef[k] = 0
		}
	}()
	// The tableau row over the nonbasic columns that can move (a fixed
	// column has t_j ≡ 0), in ascending column order.
	nz := t.pivotRow(i)
	for k := 0; k < nz; k++ {
		j, a := t.ws.rowIdx[k], t.ws.rowVal[k]
		if math.Abs(a) < 1e-12 {
			continue
		}
		atUpper := t.state[j] == atUp
		if atUpper {
			if math.IsInf(t.hi[j], 1) {
				return nil
			}
			a = -a
		} else if math.IsInf(t.lo[j], -1) {
			return nil // free nonbasic pinned at 0: no valid shift
		}
		integral := false
		if j < nStru {
			if atUpper {
				integral = isInt[j] && nearInt(t.hi[j])
			} else {
				integral = isInt[j] && nearInt(t.lo[j])
			}
		} else {
			integral = intSlack[j-nStru]
		}
		var g float64
		if integral {
			fj := a - math.Floor(a)
			if fj <= f0+intDataTol {
				g = fj
			} else {
				g = ratio * (1 - fj)
			}
		} else if a >= 0 {
			g = a
		} else {
			g = -ratio * a
		}
		if g < 1e-12 {
			continue
		}
		// Fold away a negligible term when its total reach is bounded:
		// Σ' γt ≥ f0 − γ_j·range_j remains valid.
		if rng := t.hi[j] - t.lo[j]; !math.IsInf(rng, 1) && g*rng < 1e-10 {
			rhsRelax += g * rng
			continue
		}
		// Substitute t_j back to structural space, accumulating the cut
		// left-hand side as K + Σ coef·x.
		if j < nStru {
			if atUpper {
				coef[j] -= g
				K += g * t.hi[j]
			} else {
				coef[j] += g
				K -= g * t.lo[j]
			}
		} else {
			r := j - nStru
			terms, _, rrhs := p.Row(r)
			if atUpper {
				// GE slack resting at 0: t = Σ a·x − b.
				K -= g * rrhs
				for _, tm := range terms {
					coef[tm.Var] += g * tm.Coef
				}
			} else {
				// LE slack resting at 0: t = b − Σ a·x.
				K += g * rrhs
				for _, tm := range terms {
					coef[tm.Var] -= g * tm.Coef
				}
			}
		}
	}
	// Σ γt ≥ f0 − rhsRelax  ⇒  Σ (−coef)·x ≤ K − f0 + rhsRelax.
	cutRHS := K - f0 + rhsRelax
	maxAbs := 0.0
	for _, c := range coef {
		if a := math.Abs(c); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return nil
	}
	var terms []Term
	minAbs := math.Inf(1)
	for v, c := range coef {
		a := math.Abs(c)
		if a == 0 {
			continue
		}
		if a < cutCoefDrop*maxAbs {
			// Fold −c·x into the rhs conservatively via the bounds; an
			// unbounded direction makes the fold invalid — reject.
			lo, hi := t.lo[v], t.hi[v]
			worst := math.Min(-c*lo, -c*hi)
			if math.IsInf(worst, -1) || math.IsNaN(worst) {
				return nil
			}
			cutRHS -= worst
			continue
		}
		if a < minAbs {
			minAbs = a
		}
		terms = append(terms, Term{Var: v, Coef: -c})
	}
	if len(terms) == 0 || maxAbs/minAbs > cutMaxDynamic {
		return nil
	}
	// Violation at the separated point, Euclidean-normalized.
	lhs, norm := 0.0, 0.0
	for _, tm := range terms {
		lhs += tm.Coef * t.x[tm.Var]
		norm += tm.Coef * tm.Coef
	}
	viol := (lhs - cutRHS) / math.Sqrt(norm)
	if viol < minViol {
		return nil
	}
	return &CutRow{Terms: terms, RHS: cutRHS, Violation: viol}
}
