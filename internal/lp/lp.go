package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Inf is the bound value representing "unbounded" in either direction.
var Inf = math.Inf(1)

// Sense is the relational operator of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // Σ aᵢxᵢ ≤ b
	GE              // Σ aᵢxᵢ ≥ b
	EQ              // Σ aᵢxᵢ = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Problem is a linear program under construction. Variables and
// constraints are added incrementally; bounds and costs may be changed
// between Solve calls (branch-and-bound relies on this).
type Problem struct {
	cost      []float64
	lo        []float64
	hi        []float64
	rows      []rowDef
	rev       int64 // bumped on every structural change (vars/rows added)
	deadline  time.Time
	interrupt <-chan struct{}

	// ws is the kernel scratch memory, created lazily on first solve and
	// reused for the problem's lifetime (see Workspace). Not copied by
	// Clone: each clone — one per branch-and-bound worker — owns its own.
	ws *Workspace

	// Cumulative observability counters (see SolveCount / PivotCount).
	// Not copied by Clone: each clone reports its own work.
	solves        int64
	pivots        int64
	warmSolves    int64
	coldSolves    int64
	warmFallbacks int64
	warmPivots    int64
	phase1Rows    int64
	etaUpdates    int64
	refactors     int64
	wsReuses      int64
	fillIn        int64
	basisNnzPeak  int64
}

// SetDeadline makes Solve abort with IterLimit once the wall clock passes
// t (checked periodically inside the simplex loop). The zero time means
// no deadline. Branch and bound uses this so a single oversized LP cannot
// blow through the search budget.
func (p *Problem) SetDeadline(t time.Time) { p.deadline = t }

// SetInterrupt makes Solve abort with IterLimit as soon as ch is closed,
// checked at the same cadence as the deadline. A nil channel (the
// default) disables the check. Branch and bound threads its caller's
// cancellation here so even a single in-flight LP stops within a few
// dozen pivots instead of running out its deadline.
func (p *Problem) SetInterrupt(ch <-chan struct{}) { p.interrupt = ch }

// budgetStop reports whether the problem's budget is exhausted: the
// deadline passed or the interrupt fired. Solve paths use it to tell a
// genuine stop (return IterLimit to the caller) from a numerical stall
// (retry on a different pivot path).
func (p *Problem) budgetStop() bool {
	if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
		return true
	}
	if p.interrupt != nil {
		select {
		case <-p.interrupt:
			return true
		default:
		}
	}
	return false
}

type rowDef struct {
	terms []Term
	sense Sense
	rhs   float64
}

// NewProblem returns an empty LP.
func NewProblem() *Problem { return &Problem{} }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index. Use -Inf / Inf for free directions.
func (p *Problem) AddVar(lo, hi, cost float64) int {
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.rev++
	return len(p.cost) - 1
}

// Clone returns an independent copy of the problem. Bounds, costs and the
// deadline of the clone may be changed freely without affecting the
// original — branch-and-bound workers rely on this to explore different
// subtrees concurrently. The constraint rows themselves are shared
// (Solve never mutates them); neither problem may gain rows while the
// other is solving. The clone starts with no workspace and zeroed
// counters: each worker owns its scratch memory and reports its own
// work.
func (p *Problem) Clone() *Problem {
	return &Problem{
		cost:      append([]float64(nil), p.cost...),
		lo:        append([]float64(nil), p.lo...),
		hi:        append([]float64(nil), p.hi...),
		rows:      p.rows[:len(p.rows):len(p.rows)],
		rev:       p.rev,
		deadline:  p.deadline,
		interrupt: p.interrupt,
	}
}

// SetCost replaces the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.cost[v] = cost }

// Cost returns the current objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.cost[v] }

// SetBounds replaces the bounds of variable v.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	p.lo[v] = lo
	p.hi[v] = hi
}

// Bounds returns the current bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// AddConstraint adds the row Σ terms (sense) rhs. Terms referring to the
// same variable are accumulated. Returns the row index.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) int {
	merged := mergeTerms(terms)
	for _, t := range merged {
		if t.Var < 0 || t.Var >= len(p.cost) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.rows = append(p.rows, rowDef{terms: merged, sense: sense, rhs: rhs})
	p.rev++
	return len(p.rows) - 1
}

func mergeTerms(terms []Term) []Term {
	out := make([]Term, 0, len(terms))
	idx := make(map[int]int, len(terms))
	for _, t := range terms {
		if t.Coef == 0 {
			continue
		}
		if k, ok := idx[t.Var]; ok {
			out[k].Coef += t.Coef
		} else {
			idx[t.Var] = len(out)
			out = append(out, t)
		}
	}
	return out
}

// RowsSatisfied reports whether x (length NumVars) satisfies every
// constraint row within tol. Variable bounds are not checked.
func (p *Problem) RowsSatisfied(x []float64, tol float64) bool {
	for _, r := range p.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol {
				return false
			}
		case GE:
			if lhs < r.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return false
			}
		}
	}
	return true
}

// Solution is the result of a Solve call.
type Solution struct {
	Status Status
	X      []float64 // values of the problem variables (length NumVars)
	Obj    float64   // objective value at X (minimisation)
	Iters  int       // simplex iterations across both phases

	basis  *Basis // optimal basis snapshot (nil when unavailable)
	p1rows int    // rows that started phase 1 on an artificial
}

// Basis returns a snapshot of the optimal simplex basis, or nil when the
// solve did not produce one (presolved, trivially infeasible, or
// non-optimal outcomes). The snapshot is immutable and safe to share
// across goroutines and Problem clones; feed it to SolveFrom on a problem
// with the same rows to warm-start a related solve.
func (s *Solution) Basis() *Basis { return s.basis }

// reset prepares a Solution for reuse: recycle, when non-nil, donates
// its X buffer capacity (the caller has promised it no longer reads it
// — see SolveFromReuse). nStru is the structural variable count of the
// new result.
func resetSolution(recycle *Solution, nStru int) *Solution {
	s := recycle
	if s == nil {
		s = &Solution{}
	}
	s.Status = Optimal
	s.Obj = 0
	s.Iters = 0
	s.p1rows = 0
	s.basis = nil
	if cap(s.X) >= nStru {
		s.X = s.X[:nStru]
		for i := range s.X {
			s.X[i] = 0
		}
	} else {
		s.X = make([]float64, nStru)
	}
	return s
}

const (
	tol     = 1e-7
	pivTol  = 1e-9
	stall   = 200 // degenerate iterations before switching to Bland's rule
	refresh = 120 // iterations between basic-value refreshes
	// stabPivTol is the relative pivot-stability threshold: a ratio-test
	// winner whose pivot element is below stabPivTol × max|w| triggers a
	// refactorization and re-price instead of a basis-corrupting pivot.
	stabPivTol = 1e-8
)

// nonbasic variable states
const (
	atLo int8 = iota
	atUp
	basic
)

// tableau is the working state of one simplex run over the equality form
// A·x = b with bounded variables (structurals, slacks, artificials).
// Every slice is a view into the problem's Workspace; the struct itself
// is the workspace's reused tab field, so a steady-state solve allocates
// nothing here.
type tableau struct {
	ws    *Workspace
	m, n  int       // rows, total columns
	nStru int       // structural variable count
	nArt  int       // first artificial column index (= nStru + m slacks)
	cols  [][]Term  // column-sparse A (Term.Var is the row index here)
	b     []float64 // right-hand sides
	lo    []float64
	hi    []float64
	cost  []float64 // phase-2 costs

	basis     []int // basis[i] = variable basic in row i
	state     []int8
	x         []float64
	f         *sparseLU // workspace-owned LU factors and eta file
	iters     int
	maxIter   int
	deadline  time.Time
	interrupt <-chan struct{}
	// forceBland prices with Bland's rule from the first iteration — the
	// cold path's verification retry uses it to walk a different, maximally
	// cautious pivot sequence after a default run went numerically wrong.
	forceBland bool
	// fillRefactor adds the eta-fill trigger to applyEta: refactorize as
	// soon as the eta file holds more nonzeros than the LU factors. Only
	// the one-shot Solve sets it (see coldFull for why branch and bound
	// keeps the count trigger alone).
	fillRefactor bool
	// p1rows counts the rows the cold start left on a basic artificial:
	// the rows phase 1 has to repair (zero on a warm tableau).
	p1rows int

	// Per-run kernel tallies, folded into the Problem counters only when
	// the run's result is actually returned (abandoned warm attempts
	// leave the cumulative counters untouched, keeping the documented
	// identities exact).
	etaUpd     int64
	refac      int64
	fillIn     int64  // cumulative LU fill-in across this run's factorizations
	basisNnz   int64  // peak nnz(B) observed at factorization time
	reusedInv  bool   // install skipped factorization via the workspace cache
	basisDirty bool   // basis or nonbasic states changed since install
	invBad     bool   // B⁻¹ is untrusted (mid-run refactorization failed)
	stabHits   int    // stability-guard triggers: the run saw numerical distress
	installed  *Basis // snapshot installed by a warm start (nil when cold)
}

// Solve optimises the problem with the current bounds and costs: a
// one-shot solve, presolved when the rows allow it, from a slack crash
// basis (see newTableau). It refactorizes the basis as soon as the eta
// file holds more nonzeros than the LU factors, as well as every
// refactorEvery updates; SolveFrom keeps the count trigger alone.
func (p *Problem) Solve() (*Solution, error) {
	sol, err := p.solve()
	if sol != nil {
		p.solves++
		p.coldSolves++
		p.pivots += int64(sol.Iters)
		p.phase1Rows += int64(sol.p1rows)
	}
	return sol, err
}

// SolveCount returns the number of completed Solve calls on this problem
// since creation (clones start at zero). Branch-and-bound workers read it
// to report LP-solve totals without any shared-counter traffic on the hot
// path: each worker owns its clone, so the counter has a single writer.
func (p *Problem) SolveCount() int64 { return p.solves }

// PivotCount returns the cumulative simplex iterations (phase 1 + phase 2
// pivots) across all Solve calls on this problem.
func (p *Problem) PivotCount() int64 { return p.pivots }

// WarmStartCount returns the number of SolveFrom calls that re-entered
// the simplex from a supplied basis (the warm path ran to completion).
func (p *Problem) WarmStartCount() int64 { return p.warmSolves }

// ColdSolveCount returns the number of solves that went through the full
// two-phase method from a slack crash basis: every plain Solve, every
// SolveFrom without a usable basis, and every warm-start fallback.
// SolveCount() == WarmStartCount() + ColdSolveCount() always holds.
func (p *Problem) ColdSolveCount() int64 { return p.coldSolves }

// WarmStartFallbackCount returns how many SolveFrom calls were handed a
// basis but had to abandon it (singular, stale, or numerically off) and
// re-solve cold. Fallbacks are counted under ColdSolveCount.
func (p *Problem) WarmStartFallbackCount() int64 { return p.warmFallbacks }

// WarmPivotCount returns the simplex iterations spent inside successful
// warm starts (dual repair + primal polish). PivotCount() ==
// WarmPivotCount() + ColdPivotCount() always holds.
func (p *Problem) WarmPivotCount() int64 { return p.warmPivots }

// ColdPivotCount returns the simplex iterations spent in cold two-phase
// solves, phase 1 included.
func (p *Problem) ColdPivotCount() int64 { return p.pivots - p.warmPivots }

// Phase1RowCount returns the cumulative count of rows that started
// phase 1 on an artificial — the rows the cold start found violated,
// and the repair work warm starts exist to avoid. A warm start
// contributes zero; a cold solve contributes its violated rows, zero
// when its start point satisfies every row.
func (p *Problem) Phase1RowCount() int64 { return p.phase1Rows }

// EtaUpdateCount returns the cumulative product-form (eta) updates
// applied to the LU factors — one per basis-changing pivot of every
// solve whose result was returned. EtaUpdateCount() ≤ PivotCount()
// always holds (bound-flip iterations change no basis and apply no
// update).
func (p *Problem) EtaUpdateCount() int64 { return p.etaUpdates }

// RefactorizationCount returns the number of from-scratch LU
// factorizations of the basis matrix: warm-start installs that missed
// the workspace's factorization cache, plus the mid-solve
// refactorizations that flush the eta file — every refactorEvery
// updates (see SetRefactorInterval) and, in Solve, whenever the eta
// file outgrows the factors.
// The diagonal slack-and-artificial start basis of a cold solve is
// installed in place and is not counted.
func (p *Problem) RefactorizationCount() int64 { return p.refactors }

// WorkspaceReuseCount returns the number of completed solves that
// skipped the basis factorization entirely because the workspace
// already held the factors of exactly the requested basis — the
// steady-state branch-and-bound case where a worker expands a child of
// the node it just solved. WorkspaceReuseCount() ≤ WarmStartCount()
// always holds.
func (p *Problem) WorkspaceReuseCount() int64 { return p.wsReuses }

// foldKernelCounters merges the kernel-level tallies of q — a reduced
// problem the presolver solved on this problem's behalf — into p.
// Solve/pivot counts are deliberately excluded: those flow back through
// the returned Solution, and folding them here would double-count.
func (p *Problem) foldKernelCounters(q *Problem) {
	p.etaUpdates += q.etaUpdates
	p.refactors += q.refactors
	p.fillIn += q.fillIn
	if q.basisNnzPeak > p.basisNnzPeak {
		p.basisNnzPeak = q.basisNnzPeak
	}
}

// foldTableau accumulates a finished run's kernel tallies. Called only
// for tableaus whose result is returned to the caller, so abandoned warm
// attempts never skew the counters.
func (p *Problem) foldTableau(t *tableau) {
	p.etaUpdates += t.etaUpd
	p.refactors += t.refac
	p.fillIn += t.fillIn
	// Sample the final basis too: a solve that stays under the
	// refactorization interval never factorizes, and the peak would
	// otherwise read zero for exactly the large single-LP models the
	// counter exists to describe.
	var bnnz int64
	for j := 0; j < t.m; j++ {
		bnnz += int64(len(t.cols[t.basis[j]]))
	}
	if bnnz > t.basisNnz {
		t.basisNnz = bnnz
	}
	if t.basisNnz > p.basisNnzPeak {
		p.basisNnzPeak = t.basisNnz
	}
	if t.reusedInv {
		p.wsReuses++
	}
}

// FillInCount returns the cumulative LU fill-in — factor nonzeros beyond
// nnz(B), summed over the refactorizations of every returned run. Zero
// whenever RefactorizationCount is zero.
func (p *Problem) FillInCount() int64 { return p.fillIn }

// BasisNonzeroPeak returns the largest basis-matrix nonzero count
// observed at factorization time (a high-water mark, not a sum). Solves
// that never refactorize — the cold start's diagonal crash basis is
// written in place — contribute nothing.
func (p *Problem) BasisNonzeroPeak() int64 { return p.basisNnzPeak }

func (p *Problem) solve() (*Solution, error) {
	if p.ws != nil {
		p.ws.tabOptimal = false
	}
	for v := range p.cost {
		if p.lo[v] > p.hi[v]+tol {
			// Conflicting bounds make the whole problem trivially infeasible;
			// branch-and-bound produces such nodes routinely.
			return &Solution{Status: Infeasible, X: make([]float64, len(p.cost))}, nil
		}
	}
	if ps := p.presolve(); ps != nil {
		if ps.infeas {
			return &Solution{Status: Infeasible, X: make([]float64, len(p.cost))}, nil
		}
		inner, err := ps.prob.Solve()
		if err != nil {
			return nil, err
		}
		if inner.Status != IterLimit || p.budgetStop() {
			// The reduced problem ran its own kernel; its factorization
			// tallies belong to this solve. Pivot and solve counts flow
			// back through the returned Solution instead, so only the
			// kernel counters fold here. The IterLimit fall-through below
			// abandons the reduced run, so — like a failed warm attempt —
			// its tallies are dropped.
			p.foldKernelCounters(ps.prob)
			out := &Solution{Status: inner.Status, Iters: inner.Iters, X: make([]float64, len(p.cost)), p1rows: inner.p1rows}
			if inner.Status == Optimal {
				out.X = ps.expand(inner.X, len(p.cost))
				for v, xv := range out.X {
					out.Obj += p.cost[v] * xv
				}
			}
			return out, nil
		}
		// The reduced problem hit the iteration limit without the deadline
		// passing — almost always numerical breakdown rather than a genuinely
		// hard LP: the affine substitutions (x = k·y + c with extreme k) can
		// destroy the scaling of rows that were well-conditioned in the
		// original space, driving the reduced basis singular. The reduction
		// is only an optimization, so fall through and solve the original
		// problem with the full tableau instead of surfacing a bogus limit.
	}
	// The one-shot path refactorizes on eta fill as well as on the count.
	return p.coldFull(nil, true), nil
}

// prepTableau readies the workspace and fills the tableau fields shared
// by the cold and warm constructors: dimensions, column views, bounds
// and costs of structurals and slacks, right-hand sides, and zeroed
// costs for slack and artificial columns. Artificial bounds and
// coefficients are left to the caller (the two paths differ there).
func (p *Problem) prepTableau() *tableau {
	ws := p.Workspace()
	ws.prepare(p)
	t := &ws.tab
	m, nStru, n := ws.m, ws.nStru, ws.n
	*t = tableau{
		ws: ws, m: m, n: n, nStru: nStru, nArt: nStru + m,
		cols:  ws.cols,
		b:     ws.b,
		lo:    ws.lo,
		hi:    ws.hi,
		cost:  ws.cost,
		basis: ws.basis,
		state: ws.state,
		x:     ws.x,
		f:     &ws.lu,
	}
	t.basisDirty = true
	t.maxIter = 5000 + 40*(m+nStru)
	t.deadline = p.deadline
	t.interrupt = p.interrupt
	for v := 0; v < nStru; v++ {
		t.lo[v] = p.lo[v]
		t.hi[v] = p.hi[v]
		t.cost[v] = p.cost[v]
	}
	for i, r := range p.rows {
		t.b[i] = r.rhs
		s := nStru + i
		t.cost[s] = 0
		switch r.sense {
		case LE:
			t.lo[s], t.hi[s] = 0, Inf
		case GE:
			t.lo[s], t.hi[s] = -Inf, 0
		case EQ:
			t.lo[s], t.hi[s] = 0, 0
		}
		t.cost[t.nArt+i] = 0
	}
	return t
}

// newTableau builds the cold-start tableau on a slack crash basis:
// nonbasic structurals on their nearest bounds, and in each row either
// the row's own slack or a signed artificial. A row whose slack can take
// the start residual within its bounds (LE: ≥ 0, GE: ≤ 0, EQ: exactly 0)
// already holds, so its slack is basic and its artificial nonbasic,
// fixed at 0 with coefficient +1 — the warm-path convention, so
// saveCache still accepts the final basis. Only a violated row gets a
// basic artificial absorbing its residual, and only those rows enter
// phase 1 (p1rows). Slacks and artificials are unit columns, so
// B = diag(±1) is factorized in place as a trivial LU.
func (p *Problem) newTableau() *tableau {
	t := p.prepTableau()
	m := t.m
	// Nonbasic start values for structurals and slacks: nearest finite
	// bound, or zero for free variables.
	for v := 0; v < t.nArt; v++ {
		switch {
		case !math.IsInf(t.lo[v], -1):
			t.state[v], t.x[v] = atLo, t.lo[v]
		case !math.IsInf(t.hi[v], 1):
			t.state[v], t.x[v] = atUp, t.hi[v]
		default:
			t.state[v], t.x[v] = atLo, 0 // free variable pinned at 0
		}
	}
	// Crash basis absorbing the residuals. This overwrites the factors,
	// so any cached factorization is gone until saveCache re-validates
	// one. The signed diagonal below is an exact factorization of the
	// start basis, so the drift counter restarts from zero — without
	// this, repeated cold solves accumulate toward refactorEvery and pay
	// needless mid-solve refactorizations.
	t.ws.basisValid = false
	t.ws.updatesSinceRefactor = 0
	t.f.setIdentity(m)
	resid := t.ws.resid
	copy(resid, t.b)
	for v := 0; v < t.nArt; v++ {
		if t.x[v] == 0 {
			continue
		}
		for _, tm := range t.cols[v] {
			resid[tm.Var] -= tm.Coef * t.x[v]
		}
	}
	for i := 0; i < m; i++ {
		s, a, r := t.nStru+i, t.nArt+i, resid[i]
		if r >= t.lo[s] && r <= t.hi[s] {
			// The row holds: its slack takes the residual (slack columns
			// are +1 units, so uDiag stays 1).
			t.cols[a][0] = Term{Var: i, Coef: 1}
			t.lo[a], t.hi[a] = 0, 0
			t.state[a], t.x[a] = atLo, 0
			t.basis[i] = s
			t.state[s], t.x[s] = basic, r
			continue
		}
		sign := 1.0
		if r < 0 {
			sign = -1
		}
		t.cols[a][0] = Term{Var: i, Coef: sign}
		t.lo[a], t.hi[a] = 0, Inf
		t.basis[i] = a
		t.state[a] = basic
		t.x[a] = math.Abs(r)
		t.f.uDiag[i] = sign // B = diag(±1): a trivial U, no L
		t.p1rows++
	}
	return t
}

// phase1 minimises the sum of artificials; Optimal means a feasible basis
// was found (artificials driven to zero and fixed).
func (t *tableau) phase1() Status {
	c1 := t.ws.c1
	for v := 0; v < t.nArt; v++ {
		c1[v] = 0
	}
	for a := t.nArt; a < t.n; a++ {
		c1[a] = 1
	}
	st := t.simplex(c1)
	if st == IterLimit {
		return IterLimit
	}
	sum := 0.0
	for a := t.nArt; a < t.n; a++ {
		sum += t.x[a]
	}
	if sum > 1e-6 {
		return Infeasible
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for a := t.nArt; a < t.n; a++ {
		t.lo[a], t.hi[a] = 0, 0
		if t.state[a] != basic {
			t.x[a] = 0
		}
	}
	return Optimal
}

func (t *tableau) phase2() Status {
	return t.simplex(t.cost)
}

// applyEta counts one product-form update of the basis representation
// (the eta column the callers just appended) and refactorizes from
// scratch every refactorEvery updates — accumulated across solves
// through the workspace cache — or, on a fillRefactor tableau, as soon
// as the eta file outgrows the factors: past that point every FTRAN and
// BTRAN spends more time in the eta file than in L and U. Returns false
// when that refactorization finds the basis numerically singular;
// callers abort with IterLimit and the warm path falls back.
func (t *tableau) applyEta() bool {
	t.etaUpd++
	t.basisDirty = true
	t.ws.basisValid = false // the factors no longer match any cached basis
	t.ws.updatesSinceRefactor++
	if t.ws.updatesSinceRefactor >= refactorEvery ||
		t.fillRefactor && t.f.etaNonzeros() > t.f.factorNonzeros() {
		if !t.factorize() {
			t.invBad = true
			return false
		}
		t.refreshBasics()
	}
	return true
}

// saveCache records that the workspace's factors represent the
// tableau's final basis, so the next warm install of exactly this basis
// can skip factorization. A basis holding a sign-flipped artificial
// column is not cacheable: warm tableaus rebuild artificials with +1
// coefficients, which would silently change the matrix behind the
// cached factors.
func (t *tableau) saveCache() {
	ws := t.ws
	if t.invBad {
		ws.basisValid = false
		return
	}
	for i := 0; i < t.m; i++ {
		v := t.basis[i]
		if v >= t.nArt && t.cols[v][0].Coef != 1 {
			ws.basisValid = false
			return
		}
	}
	ws.basisValid = true
	ws.cachedBasis = append(ws.cachedBasis[:0], t.basis...)
}

// aborted reports that the run's budget is gone: the deadline passed or
// the caller's interrupt channel fired. The simplex loops poll it every
// 64 iterations — cheap enough to be free, frequent enough that a
// cancellation stops even a huge LP within a few dozen pivots.
func (t *tableau) aborted() bool {
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return true
	}
	if t.interrupt != nil {
		select {
		case <-t.interrupt:
			return true
		default:
		}
	}
	return false
}

// simplex runs the bounded-variable primal simplex with costs c from the
// current basis until optimality or failure.
func (t *tableau) simplex(c []float64) Status {
	m := t.m
	y := t.ws.y
	w := t.ws.w
	degen := 0
	for ; t.iters < t.maxIter; t.iters++ {
		if t.iters%64 == 0 && t.aborted() {
			return IterLimit
		}
		// Simplex multipliers y = c_B · B⁻¹.
		t.computeMultipliers(c)
		// Pricing.
		enter, dir := t.price(c, y, degen >= stall || t.forceBland)
		if enter < 0 {
			return Optimal
		}
		// Direction w = B⁻¹ A_enter.
		t.ftranColumn(enter)
		// Ratio test. Moving x_enter by dir·t changes basics by -dir·t·w.
		tMax := Inf
		leave := -1 // index into basis; -1 = bound flip of entering var
		leaveAt := atLo
		if gap := t.hi[enter] - t.lo[enter]; !math.IsInf(gap, 1) {
			tMax = gap
		}
		fdir := float64(dir)
		for i := 0; i < m; i++ {
			d := fdir * w[i]
			bv := t.basis[i]
			var lim float64
			var hitState int8
			switch {
			case d > pivTol: // basic value decreases toward lower bound
				if math.IsInf(t.lo[bv], -1) {
					continue
				}
				lim = (t.x[bv] - t.lo[bv]) / d
				hitState = atLo
			case d < -pivTol: // basic value increases toward upper bound
				if math.IsInf(t.hi[bv], 1) {
					continue
				}
				lim = (t.x[bv] - t.hi[bv]) / d
				hitState = atUp
			default:
				continue
			}
			if lim < -tol {
				lim = 0
			}
			if lim < tMax-tol || (lim < tMax+tol && leave >= 0 && math.Abs(w[i]) > math.Abs(w[leave])) {
				tMax = lim
				leave = i
				leaveAt = hitState
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if leave >= 0 && t.ws.updatesSinceRefactor > 0 {
			// Pivot stability guard: an eta column whose pivot element is
			// tiny relative to the direction vector's largest entry
			// multiplies every accumulated rounding error by the same huge
			// factor, and one such pivot is enough to corrupt B⁻¹ beyond
			// repair (observed: |w| entries of 1e14 turning a degenerate step
			// into an 0.04 bound violation the primal loop can never undo).
			// Tiny relative pivots are almost always artifacts of eta-update
			// drift, so rebuild the factorization and re-price; a pivot that
			// is still tiny on fresh factors is accepted as genuine.
			wmax := 0.0
			for i := 0; i < m; i++ {
				if a := math.Abs(w[i]); a > wmax {
					wmax = a
				}
			}
			if math.Abs(w[leave]) < stabPivTol*wmax {
				t.stabHits++
				if !t.factorize() {
					t.invBad = true
					return IterLimit
				}
				t.refreshBasics()
				continue
			}
		}
		if tMax < tol {
			degen++
		} else {
			degen = 0
		}
		// Apply the step.
		t.x[enter] += float64(dir) * tMax
		for i := 0; i < m; i++ {
			if w[i] != 0 {
				t.x[t.basis[i]] -= float64(dir) * tMax * w[i]
			}
		}
		if leave < 0 {
			// Bound flip: entering variable moved to its other bound.
			if dir > 0 {
				t.state[enter] = atUp
				t.x[enter] = t.hi[enter]
			} else {
				t.state[enter] = atLo
				t.x[enter] = t.lo[enter]
			}
			t.basisDirty = true
			continue
		}
		// Pivot enter into the basis replacing basis[leave].
		out := t.basis[leave]
		t.state[out] = leaveAt
		if leaveAt == atLo {
			t.x[out] = t.lo[out]
		} else {
			t.x[out] = t.hi[out]
		}
		t.basis[leave] = enter
		t.state[enter] = basic
		t.f.appendEta(leave, w)
		if !t.applyEta() {
			return IterLimit
		}
		if t.iters%refresh == refresh-1 {
			t.refreshBasics()
		}
	}
	return IterLimit
}

// price selects an entering variable. dir = +1 to increase, -1 to
// decrease. Returns (-1, 0) at optimality.
func (t *tableau) price(c, y []float64, bland bool) (enter, dir int) {
	best := -1
	bestDir := 0
	bestScore := tol
	for v := 0; v < t.n; v++ {
		if t.state[v] == basic {
			continue
		}
		if t.hi[v]-t.lo[v] < tol && !math.IsInf(t.hi[v], 1) {
			continue // fixed variable can never move
		}
		rc := c[v]
		for _, tm := range t.cols[v] {
			rc -= y[tm.Var] * tm.Coef
		}
		free := math.IsInf(t.lo[v], -1) && math.IsInf(t.hi[v], 1)
		var d int
		switch {
		case (t.state[v] == atLo || free) && rc < -tol:
			d = +1
		case (t.state[v] == atUp || free) && rc > tol:
			d = -1
		default:
			continue
		}
		if bland {
			return v, d
		}
		if math.Abs(rc) > bestScore {
			bestScore = math.Abs(rc)
			best, bestDir = v, d
		}
	}
	return best, bestDir
}

// refreshBasics recomputes basic variable values from scratch to flush
// accumulated floating-point drift.
func (t *tableau) refreshBasics() {
	r := t.ws.resid
	copy(r, t.b)
	for v := 0; v < t.n; v++ {
		if t.state[v] == basic || t.x[v] == 0 {
			continue
		}
		for _, tm := range t.cols[v] {
			r[tm.Var] -= tm.Coef * t.x[v]
		}
	}
	t.f.ftran(r)
	for i := 0; i < t.m; i++ {
		t.x[t.basis[i]] = r[i]
	}
}

// computeMultipliers computes the simplex multipliers y = c_B·B⁻¹ into
// the workspace's y vector by one BTRAN against the factors.
func (t *tableau) computeMultipliers(c []float64) {
	cb := t.f.cw
	for i := 0; i < t.m; i++ {
		cb[i] = c[t.basis[i]]
	}
	t.f.btran(cb, t.ws.y)
}

// ftranColumn computes the direction w = B⁻¹·A_enter into the
// workspace's w vector by one FTRAN against the factors.
func (t *tableau) ftranColumn(enter int) {
	w := t.ws.w
	for i := 0; i < t.m; i++ {
		w[i] = 0
	}
	for _, tm := range t.cols[enter] {
		w[tm.Var] += tm.Coef
	}
	t.f.ftran(w)
}

// binvRow returns row r of B⁻¹ (the BTRAN of the r-th unit vector),
// solved into the workspace's rho scratch.
func (t *tableau) binvRow(r int) []float64 {
	cb, rho := t.f.cw, t.ws.rho
	for i := 0; i < t.m; i++ {
		cb[i] = 0
	}
	cb[r] = 1
	t.f.btran(cb, rho)
	return rho
}

// ErrBadModel reports structurally invalid model input.
var ErrBadModel = errors.New("lp: invalid model")
