package lp

import (
	"math"
)

// Basis is a compact snapshot of a simplex basis: which variable is basic
// in each row plus the bound each nonbasic column rests on, over the full
// tableau column space (structurals, slacks, artificials). A Basis is
// immutable after creation — branch-and-bound shares one snapshot between
// sibling nodes and across worker Problem clones without copying, and
// SolveFromReuse never recycles one.
type Basis struct {
	m, nStru int
	rows     []int  // rows[i] = variable basic in row i
	state    []int8 // per-column nonbasic position (atLo / atUp / basic)
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
	return &Basis{
		m:     t.m,
		nStru: t.nStru,
		rows:  append([]int(nil), t.basis...),
		state: append([]int8(nil), t.state...),
	}
}

// SolveFrom optimises the problem starting from a prior basis snapshot.
// The intended caller is branch and bound: a child node differs from its
// parent by one variable-bound change, the parent's optimal basis stays
// dual feasible under that change, and a short dual-simplex repair
// reaches the child optimum without any artificial phase 1. When basis is
// nil, incompatible, singular, or the repair goes off the rails, the
// solve silently falls back to the cold two-phase path (see
// WarmStartFallbackCount). Unlike Solve, SolveFrom never presolves — the
// returned Solution always carries a Basis for the next generation.
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
	return p.coldFull(recycle, false), false
}

// coldFull is the full-tableau two-phase solve from the slack crash
// basis (see newTableau). It bypasses presolve, so an optimal result
// carries a reusable basis. A run that claims optimality on a bound- or
// row-violating point, drives the basis numerically singular (invBad),
// or claims infeasibility after tripping the pivot-stability guard was
// corrupted by accumulated drift: it is re-run once from scratch under
// Bland's rule, whose cautious pricing walks a different (and far more
// stable) pivot path, and the abandoned run's tallies are dropped, like
// a failed warm attempt.
//
// fillRefactor sets the eta-fill refactorization trigger (see applyEta)
// on both runs. The one-shot Solve sets it. Branch and bound — the
// SolveFrom fallback and the basis-less integer root — keeps the count
// trigger alone: refactorizing changes the last bits of every solve and
// so the vertex a cold MILP root lands on, which has moved chip128-2's
// control inlets from 32 to 34 (EXPERIMENTS.md, "Refactorize on eta
// fill"). The fill trigger is not measured on branch and bound.
func (p *Problem) coldFull(recycle *Solution, fillRefactor bool) *Solution {
	var t *tableau
	var p1, st Status
	for bland := false; ; bland = true {
		t = p.newTableau()
		t.forceBland, t.fillRefactor = bland, fillRefactor
		if p1 = t.phase1(); p1 == Optimal {
			st = t.phase2()
		} else {
			st = p1
		}
		corrupt := st == Optimal && !p.warmResultOK(t.x[:t.nStru]) ||
			st == IterLimit && t.invBad || st == Infeasible && t.stabHits > 0
		if bland || !corrupt {
			break
		}
	}
	t.saveCache()
	p.foldTableau(t)
	sol := resetSolution(recycle, len(p.cost))
	sol.Status, sol.Iters, sol.p1rows = st, t.iters, t.p1rows
	if p1 != Optimal {
		return sol
	}
	copy(sol.X, t.x[:t.nStru])
	for v, xv := range sol.X {
		sol.Obj += p.cost[v] * xv
	}
	if st == Optimal {
		sol.basis = t.snapshot()
		t.ws.tabOptimal = true
	}
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
	// bound change out of the basis; the parent basis is dual feasible so
	// no phase 1 is needed. A nil-candidate outcome is a genuine
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
	copy(t.basis, b.rows)
	copy(t.state, b.state)
	t.installed = b
	if t.ws.basisValid && intsEqual(t.ws.cachedBasis, b.rows) {
		t.reusedInv = true
		return true
	}
	return t.factorize()
}

// newWarmTableau builds the full tableau (as newTableau does) but
// installs the snapshot basis instead of the crash one. Artificials
// are fixed at zero with +1 coefficients — they exist only so snapshot
// column indices stay aligned and a degenerate parent basis that still
// holds an artificial remains representable. Returns nil when the basis
// matrix is singular.
func (p *Problem) newWarmTableau(b *Basis) *tableau {
	t := p.prepTableau()
	m := t.m
	// A prior cold solve may have sign-flipped artificial coefficients in
	// the shared column arena; the warm convention is +1, fixed at zero.
	// Rewriting a nonbasic column never touches the factors, and
	// saveCache refuses to cache a basis holding a flipped artificial, so
	// a cache hit can only ever see +1 columns.
	for i := 0; i < m; i++ {
		a := t.nArt + i
		t.cols[a][0] = Term{Var: i, Coef: 1}
		t.lo[a], t.hi[a] = 0, 0
	}
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

// dualSimplex restores primal feasibility from a dual-feasible basis with
// costs c. Each iteration kicks the most-violated basic variable out to
// its nearest bound, choosing the entering column by the dual ratio test
// so reduced-cost signs are preserved. Returns Optimal once every basic
// value is inside its bounds, Infeasible when a violated row admits no
// entering column (a valid infeasibility certificate), or IterLimit.
func (t *tableau) dualSimplex(c []float64) Status {
	m := t.m
	y := t.ws.y
	w := t.ws.w
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
		// Simplex multipliers for the dual ratio test.
		t.computeMultipliers(c)
		rho := t.binvRow(r)
		enter, bestRatio := -1, Inf
		bland := degen >= stall
		for v := 0; v < t.n; v++ {
			if t.state[v] == basic {
				continue
			}
			if t.hi[v]-t.lo[v] < tol && !math.IsInf(t.hi[v], 1) {
				continue // fixed column can never enter
			}
			alpha := 0.0
			for _, tm := range t.cols[v] {
				alpha += rho[tm.Var] * tm.Coef
			}
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
			rc := c[v]
			for _, tm := range t.cols[v] {
				rc -= y[tm.Var] * tm.Coef
			}
			ratio := math.Abs(rc) / math.Abs(ab)
			if enter < 0 || ratio < bestRatio-tol {
				enter, bestRatio = v, ratio
				if bland {
					break // first admissible column: anti-cycling
				}
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
			return IterLimit // numerically dead pivot — let the caller fall back
		}
		out := t.basis[r]
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
		if t.iters%refresh == refresh-1 {
			t.refreshBasics()
		}
	}
	return IterLimit
}
