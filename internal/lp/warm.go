package lp

import (
	"math"
)

// Basis is a compact snapshot of a simplex basis: which variable is basic
// in each row plus the bound each nonbasic column rests on, over the full
// tableau column space (structurals, then one slack per row). A Basis is
// immutable after creation — branch-and-bound shares one snapshot between
// sibling nodes and across worker Problem clones without copying, and
// SolveFromReuse never recycles one.
type Basis struct {
	m, nStru int
	rows     []int32 // rows[i] = variable basic in row i
	state    []int8  // per-column nonbasic position (atLo / atUp / basic)
}

// compatible reports whether the snapshot can seed a solve of p: same row
// count and same structural variable count. Rows are shared by Clone and
// never mutated by Solve, so dimension equality is the whole check.
func (b *Basis) compatible(p *Problem) bool {
	return b != nil && b.m == len(p.rows) && b.nStru == len(p.cost)
}

// snapshot captures the tableau's current basis. Only valid at a basic
// solution (after a successful simplex run). When a warm start installed
// a snapshot and the solve finished without moving anything — no pivot,
// no bound flip, no state normalisation — the installed snapshot itself
// is returned: it is immutable and still exact, and the steady-state
// warm path stays allocation-free.
func (t *tableau) snapshot() *Basis {
	if !t.basisDirty && t.installed != nil {
		return t.installed
	}
	rows := make([]int32, t.m)
	for i, v := range t.basis {
		rows[i] = int32(v)
	}
	return &Basis{
		m:     t.m,
		nStru: t.nStru,
		rows:  rows,
		state: append([]int8(nil), t.state...),
	}
}

// SolveFrom optimises the problem starting from a prior basis snapshot.
// The intended caller is branch and bound: a child node differs from its
// parent by one variable-bound change, the parent's optimal basis stays
// dual feasible under that change, and a short dual-simplex repair
// reaches the child optimum. When basis is nil, incompatible, singular,
// or the repair goes off the rails, the solve silently falls back to the
// cold path from the all-slack basis (see WarmStartFallbackCount).
// Unlike Solve, SolveFrom never presolves — the returned Solution always
// carries a Basis for the next generation.
func (p *Problem) SolveFrom(basis *Basis) (*Solution, error) {
	return p.SolveFromReuse(basis, nil)
}

// SolveFromReuse is SolveFrom with Solution recycling: when recycle is
// non-nil its X buffer is reused for the new result, and the returned
// Solution may be recycle itself. The caller promises it no longer reads
// recycle (or slices obtained from it) — branch-and-bound
// hands back the previous node's Solution once its values have been
// copied out, which makes the steady-state warm path allocation-free.
// Basis snapshots are never recycled; any Basis previously returned
// remains valid and immutable.
func (p *Problem) SolveFromReuse(basis *Basis, recycle *Solution) (*Solution, error) {
	sol, warm := p.solveFrom(basis, recycle)
	p.solves++
	p.pivots += int64(sol.Iters)
	if warm {
		p.warmSolves++
		p.warmPivots += int64(sol.Iters)
	} else {
		p.coldSolves++
		p.phase1Rows += int64(sol.p1rows)
		if basis != nil {
			p.warmFallbacks++
		}
	}
	return sol, nil
}

// solveFrom runs the warm path and reports whether it was used; any
// failure inside the warm attempt discards its state and re-solves cold.
func (p *Problem) solveFrom(basis *Basis, recycle *Solution) (sol *Solution, warm bool) {
	if p.ws != nil {
		p.ws.tabOptimal = false
	}
	for v := range p.cost {
		if p.lo[v] > p.hi[v]+tol {
			// Trivially infeasible child; no simplex work on either path.
			// Attributed to the warm side when a basis was offered so a
			// fallback is never recorded for a node the parent basis
			// could not have helped.
			s := resetSolution(recycle, len(p.cost))
			s.Status = Infeasible
			return s, basis != nil
		}
	}
	if basis.compatible(p) {
		if s := p.warmSolve(basis, recycle); s != nil {
			return s, true
		}
	}
	return p.coldFull(recycle), false
}

// coldFull is the full-tableau solve from the all-slack basis (see
// newTableau): the dual simplex, pricing with the repair costs, fixes
// the rows the start violates, and the primal simplex then optimises the
// true costs — on a model whose every costed column has the bound its
// cost sign asks for the two cost vectors are equal, and the primal only
// confirms optimality. It bypasses presolve, so an optimal result
// carries a reusable basis. A run that claims optimality on a bound- or
// row-violating point, or that drives the basis numerically singular or
// hits a dead dual pivot (invBad), was corrupted by accumulated drift:
// it is re-run once from scratch under Bland's rule, whose cautious
// pricing walks a different (and far more stable) pivot path, and the
// abandoned run's tallies are dropped, like a failed warm attempt.
func (p *Problem) coldFull(recycle *Solution) *Solution {
	var t *tableau
	var st Status
	for bland := false; ; bland = true {
		t = p.newTableau()
		t.forceBland = bland
		if st = t.dualSimplex(t.ws.repair); st == Optimal {
			st = t.phase2()
		}
		corrupt := st == Optimal && !p.warmResultOK(t.x[:t.nStru]) ||
			st == IterLimit && t.invBad
		if bland || !corrupt {
			break
		}
	}
	t.saveCache()
	p.foldTableau(t)
	sol := resetSolution(recycle, len(p.cost))
	sol.Status, sol.Iters, sol.p1rows = st, t.iters, t.p1rows
	if st != Optimal {
		return sol
	}
	copy(sol.X, t.x[:t.nStru])
	for v, xv := range sol.X {
		sol.Obj += p.cost[v] * xv
	}
	sol.basis = t.snapshot()
	t.ws.tabOptimal = true
	return sol
}

// warmSolve attempts the warm path. A nil return means the basis could
// not be used (singular factorization, iteration blow-up, or a result
// that fails verification) and the caller should fall back. The recycle
// buffers are only consumed on a returned result; a fallback leaves them
// for coldFull to claim.
func (p *Problem) warmSolve(basis *Basis, recycle *Solution) *Solution {
	t := p.newWarmTableau(basis)
	if t == nil {
		return nil
	}
	// Dual simplex drives the primal infeasibilities introduced by the
	// bound change out of the basis; the parent basis is dual feasible,
	// so it repairs from there. A nil-candidate outcome is a genuine
	// infeasibility proof, not a failure.
	switch st := t.dualSimplex(t.cost); st {
	case Infeasible:
		t.saveCache()
		p.foldTableau(t)
		sol := resetSolution(recycle, len(p.cost))
		sol.Status, sol.Iters = Infeasible, t.iters
		return sol
	case IterLimit:
		if p.budgetStop() {
			p.foldTableau(t)
			sol := resetSolution(recycle, len(p.cost))
			sol.Status, sol.Iters = IterLimit, t.iters
			return sol
		}
		return nil // stale basis ground away the budget — fall back
	}
	// Primal polish from the repaired basis: confirms optimality and
	// absorbs any dual drift the repair introduced.
	st := t.phase2()
	if st == Unbounded || st == IterLimit {
		if st == IterLimit && p.budgetStop() {
			p.foldTableau(t)
			sol := resetSolution(recycle, len(p.cost))
			sol.Status, sol.Iters = IterLimit, t.iters
			return sol
		}
		if st == Unbounded {
			t.saveCache()
			p.foldTableau(t)
			sol := resetSolution(recycle, len(p.cost))
			sol.Status, sol.Iters = Unbounded, t.iters
			return sol
		}
		return nil
	}
	sol := resetSolution(recycle, len(p.cost))
	sol.Status, sol.Iters = st, t.iters
	copy(sol.X, t.x[:t.nStru])
	for v, xv := range sol.X {
		sol.Obj += p.cost[v] * xv
	}
	if !p.warmResultOK(sol.X) {
		return nil // numerically off — rebuild from scratch
	}
	t.saveCache()
	p.foldTableau(t)
	sol.basis = t.snapshot()
	t.ws.tabOptimal = true
	return sol
}

// warmResultOK verifies a warm optimum against the original rows and
// bounds with a loose tolerance; a failure indicates the inherited
// factorization drifted and the answer cannot be trusted.
func (p *Problem) warmResultOK(x []float64) bool {
	const vtol = 1e-5
	for v, xv := range x {
		if xv < p.lo[v]-vtol || xv > p.hi[v]+vtol {
			return false
		}
	}
	return p.RowsSatisfied(x, vtol)
}

// installBasis adopts the snapshot's basis and states, producing valid
// LU factors in workspace memory. When the workspace's factorization
// cache already holds the factors of exactly this basis — the
// steady-state branch-and-bound case, where a worker expands a child of
// the node it just solved — the refactorization is skipped entirely and
// the solve is tallied as a workspace reuse. Returns false when the
// basis matrix is numerically singular.
func (t *tableau) installBasis(b *Basis) bool {
	for i, v := range b.rows {
		t.basis[i] = int(v)
	}
	copy(t.state, b.state)
	t.installed = b
	if t.ws.basisValid && intsEqual(t.ws.cachedBasis, t.basis) {
		t.reusedInv = true
		return true
	}
	return t.factorize()
}

// newWarmTableau builds the full tableau (as newTableau does) but
// installs the snapshot basis instead of the all-slack one. Returns nil
// when the basis matrix is singular.
func (p *Problem) newWarmTableau(b *Basis) *tableau {
	t := p.prepTableau()
	if !t.installBasis(b) {
		return nil
	}
	t.basisDirty = false
	// Nonbasic variables rest on their (possibly tightened) bounds; the
	// snapshot's atUp/atLo choice is kept where both bounds are finite.
	for v := 0; v < t.n; v++ {
		if t.state[v] == basic {
			continue
		}
		switch {
		case t.state[v] == atUp && !math.IsInf(t.hi[v], 1):
			t.x[v] = t.hi[v]
		case !math.IsInf(t.lo[v], -1):
			if t.state[v] != atLo {
				t.state[v] = atLo
				t.basisDirty = true
			}
			t.x[v] = t.lo[v]
		case !math.IsInf(t.hi[v], 1):
			if t.state[v] != atUp {
				t.state[v] = atUp
				t.basisDirty = true
			}
			t.x[v] = t.hi[v]
		default:
			if t.state[v] != atLo {
				t.state[v] = atLo
				t.basisDirty = true
			}
			t.x[v] = 0 // free variable pinned at 0
		}
	}
	t.refreshBasics()
	return t
}

// factorize rebuilds the LU factors of the currently installed basis
// from scratch. Returns false when the basis matrix is numerically
// singular; the factorization cache is invalidated either way until a
// trusted exit re-validates it (saveCache).
func (t *tableau) factorize() bool {
	t.ws.basisValid = false
	t.ws.updatesSinceRefactor = 0
	t.refac++
	if t.m == 0 {
		t.f.setIdentity(0)
		return true
	}
	ok, bNnz, fill := t.f.factorize(t.basis, t.cols, t.m)
	if int64(bNnz) > t.basisNnz {
		t.basisNnz = int64(bNnz)
	}
	if ok {
		t.fillIn += int64(fill)
	}
	return ok
}

// dualSimplex restores primal feasibility from a basis dual feasible
// for costs c. Each iteration kicks the most-violated basic variable out
// to its nearest bound, choosing the entering column by the dual ratio
// test so reduced-cost signs are preserved. The reduced costs are kept,
// not re-priced: one BTRAN before the first pivot, then after each pivot
// the update d_j −= θ·α_rj over the pivot row the ratio test already
// formed, and a recomputation from scratch whenever the basic values are
// refreshed, which flushes the drift of both. Returns Optimal once every
// basic value is inside its bounds, Infeasible when a violated row admits
// no entering column (a valid infeasibility certificate), or IterLimit —
// with invBad set when the pivot the row chose is numerically dead in
// its column.
func (t *tableau) dualSimplex(c []float64) Status {
	m := t.m
	w, d := t.ws.w, t.ws.d
	rowIdx, rowVal := t.ws.rowIdx, t.ws.rowVal
	priced := false // a basis that is already primal feasible needs no prices
	degen := 0
	for ; t.iters < t.maxIter; t.iters++ {
		if t.iters%64 == 0 && t.aborted() {
			return IterLimit
		}
		// Leaving row: largest bound violation among basic variables.
		r, viol, e := -1, tol, 0.0
		var target float64
		var leaveAt int8
		for i := 0; i < m; i++ {
			bv := t.basis[i]
			if d := t.x[bv] - t.hi[bv]; d > viol {
				r, viol, e, target, leaveAt = i, d, 1, t.hi[bv], atUp
			}
			if d := t.lo[bv] - t.x[bv]; d > viol {
				r, viol, e, target, leaveAt = i, d, -1, t.lo[bv], atLo
			}
		}
		if r < 0 {
			return Optimal
		}
		if !priced {
			t.reducedCosts(c)
			priced = true
		}
		// Pivot row α_r = (B⁻¹)_r·A over the columns that can enter, in
		// ascending column order; its nonzeros are kept for the
		// reduced-cost update.
		nz := t.pivotRow(r)
		enter, bestRatio, alphaQ := -1, Inf, 0.0
		bland := degen >= stall || t.forceBland
		for k := 0; k < nz; k++ {
			v, alpha := rowIdx[k], rowVal[k]
			ab := e * alpha
			free := math.IsInf(t.lo[v], -1) && math.IsInf(t.hi[v], 1)
			var ok bool
			switch {
			case free:
				ok = math.Abs(ab) > pivTol
			case t.state[v] == atLo:
				ok = ab > pivTol
			case t.state[v] == atUp:
				ok = ab < -pivTol
			}
			if !ok {
				continue
			}
			// Under Bland's rule the first admissible column enters
			// (anti-cycling).
			ratio := math.Abs(d[v]) / math.Abs(ab)
			if enter < 0 || !bland && ratio < bestRatio-tol {
				enter, bestRatio, alphaQ = v, ratio, alpha
			}
		}
		if enter < 0 {
			// The violated row cannot be repaired: primal infeasible.
			return Infeasible
		}
		if bestRatio < tol {
			degen++
		} else {
			degen = 0
		}
		// Direction w = B⁻¹ A_enter; the step drives row r exactly to its
		// violated bound.
		t.ftranColumn(enter)
		if math.Abs(w[r]) < pivTol {
			// The row and the column disagree on the pivot: the factors
			// can no longer be trusted.
			t.invBad = true
			return IterLimit
		}
		out := t.basis[r]
		// Reduced costs of the new basis: d_j −= θ·α_rj with θ = d_q/α_rq,
		// which zeroes the entering column's and prices the leaving one.
		theta := d[enter] / alphaQ
		for k := 0; k < nz; k++ {
			d[rowIdx[k]] -= theta * rowVal[k]
		}
		d[enter], d[out] = 0, -theta
		step := (t.x[out] - target) / w[r]
		t.x[enter] += step
		for i := 0; i < m; i++ {
			if w[i] != 0 {
				t.x[t.basis[i]] -= step * w[i]
			}
		}
		t.state[out] = leaveAt
		t.x[out] = target
		t.basis[r] = enter
		t.state[enter] = basic
		t.f.appendEta(r, w)
		if !t.applyEta() {
			return IterLimit
		}
		switch {
		case t.ws.updatesSinceRefactor == 0:
			// Fresh factors: applyEta refreshed the basic values.
			t.reducedCosts(c)
		case t.iters%refresh == refresh-1:
			t.refreshBasics()
			t.reducedCosts(c)
		}
	}
	return IterLimit
}
