package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	Iters  int       // simplex iterations, dual repair and primal

	basis  *Basis // optimal basis snapshot (nil when unavailable)
	p1rows int    // rows the cold start found violated (see newTableau)
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
// A·x = b with bounded variables (structurals, then one slack per row).
// Every slice is a view into the problem's Workspace; the struct itself
// is the workspace's reused tab field, so a steady-state solve allocates
// nothing here.
type tableau struct {
	ws    *Workspace
	m, n  int       // rows, total columns
	nStru int       // structural variable count
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
	// p1rows counts the rows whose slack the cold start found outside its
	// bounds: the rows the dual repair has to fix (zero on a warm
	// tableau).
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
	invBad     bool   // B⁻¹ is untrusted (a refactorization failed or a dual pivot died)
	installed  *Basis // snapshot installed by a warm start (nil when cold)
}

// Solve optimises the problem with the current bounds and costs: a
// one-shot solve, presolved when the rows allow it, from the all-slack
// basis (see newTableau and coldFull).
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

// PivotCount returns the cumulative simplex iterations (dual repair and
// primal pivots) across all Solve calls on this problem.
func (p *Problem) PivotCount() int64 { return p.pivots }

// WarmStartCount returns the number of SolveFrom calls that re-entered
// the simplex from a supplied basis (the warm path ran to completion).
func (p *Problem) WarmStartCount() int64 { return p.warmSolves }

// ColdSolveCount returns the number of solves that started from the
// all-slack basis: every plain Solve, every SolveFrom without a usable
// basis, and every warm-start fallback.
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

// ColdPivotCount returns the simplex iterations spent in cold solves,
// dual repair and primal pivots alike.
func (p *Problem) ColdPivotCount() int64 { return p.pivots - p.warmPivots }

// Phase1RowCount returns the cumulative count of rows the cold start
// found violated — the rows its dual simplex has to repair, and the
// repair work warm starts exist to avoid. A warm start contributes zero;
// a cold solve contributes its violated rows, zero when its start point
// satisfies every row.
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
// refactorizations that flush the eta file whenever it outgrows the
// factors, and at the latest every refactorEvery updates (see
// SetRefactorInterval). The identity start basis of a cold solve is
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
// observed at factorization time (a high-water mark, not a sum), and in
// the final basis of every returned run.
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
	return p.coldFull(nil), nil
}

// prepTableau readies the workspace and fills the tableau fields shared
// by the cold and warm constructors: dimensions, column views, bounds
// and costs of structurals and slacks (slacks cost nothing), and
// right-hand sides.
func (p *Problem) prepTableau() *tableau {
	ws := p.Workspace()
	ws.prepare(p)
	t := &ws.tab
	m, nStru, n := ws.m, ws.nStru, ws.n
	*t = tableau{
		ws: ws, m: m, n: n, nStru: nStru,
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
	}
	return t
}

// newTableau builds the cold-start tableau on the all-slack basis: every
// row starts on its own slack, so B = I is written in place as a trivial
// LU, and each nonbasic structural rests on the bound its cost sign asks
// for — lower for a positive cost, upper for a negative one. That basis
// is dual feasible for the repair costs the cold dual simplex prices
// with (ws.repair): the column's own cost, or 0 for a column whose cost
// is 0 or whose wanted bound is infinite, which rests on its lower bound
// when finite, else its upper bound, else (free) at 0. A row whose slack
// takes the start residual within its bounds (LE: ≥ 0, GE: ≤ 0, EQ:
// exactly 0) already holds; the others are the rows the dual repairs
// (p1rows).
func (p *Problem) newTableau() *tableau {
	t := p.prepTableau()
	repair := t.ws.repair
	for v := 0; v < t.nStru; v++ {
		c, lo, hi := t.cost[v], t.lo[v], t.hi[v]
		repair[v] = c
		switch {
		case c > 0 && !math.IsInf(lo, -1):
			t.state[v], t.x[v] = atLo, lo
		case c < 0 && !math.IsInf(hi, 1):
			t.state[v], t.x[v] = atUp, hi
		case !math.IsInf(lo, -1):
			t.state[v], t.x[v], repair[v] = atLo, lo, 0
		case !math.IsInf(hi, 1):
			t.state[v], t.x[v], repair[v] = atUp, hi, 0
		default:
			t.state[v], t.x[v], repair[v] = atLo, 0, 0 // free variable pinned at 0
		}
	}
	// The start basis overwrites the factors, so any cached factorization
	// is gone until saveCache re-validates one. The identity is an exact
	// factorization, so the drift counter restarts from zero — without
	// this, repeated cold solves accumulate toward refactorEvery and pay
	// needless mid-solve refactorizations.
	t.ws.basisValid = false
	t.ws.updatesSinceRefactor = 0
	t.f.setIdentity(t.m)
	resid := t.ws.resid
	copy(resid, t.b)
	for v := 0; v < t.nStru; v++ {
		if t.x[v] == 0 {
			continue
		}
		for _, tm := range t.cols[v] {
			resid[tm.Var] -= tm.Coef * t.x[v]
		}
	}
	for i := 0; i < t.m; i++ {
		s, r := t.nStru+i, resid[i]
		t.basis[i] = s
		t.state[s], t.x[s], repair[s] = basic, r, 0
		if r < t.lo[s]-tol || r > t.hi[s]+tol {
			t.p1rows++
		}
	}
	return t
}

func (t *tableau) phase2() Status {
	return t.simplex(t.cost)
}

// applyEta counts one product-form update of the basis representation
// (the eta column the callers just appended) and refactorizes from
// scratch as soon as the eta file outgrows the factors — past that point
// every FTRAN and BTRAN spends more time in the eta file than in L and
// U — and at the latest every refactorEvery updates, accumulated across
// solves through the workspace cache. Returns false when that
// refactorization finds the basis numerically singular; callers abort
// with IterLimit and the warm path falls back.
func (t *tableau) applyEta() bool {
	t.etaUpd++
	t.basisDirty = true
	t.ws.basisValid = false // the factors no longer match any cached basis
	t.ws.updatesSinceRefactor++
	if t.ws.updatesSinceRefactor >= refactorEvery ||
		t.f.etaNonzeros() > t.f.factorNonzeros() {
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
// can skip factorization.
func (t *tableau) saveCache() {
	ws := t.ws
	if t.invBad {
		ws.basisValid = false
		return
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

// reducedCosts computes d_j = c_j − y·A_j from scratch into the
// workspace's d vector for every nonbasic column that can move — the
// prices the dual simplex keeps up to date between its refreshes.
// Basic and fixed columns are skipped and their entries left stale.
func (t *tableau) reducedCosts(c []float64) {
	t.computeMultipliers(c)
	y, d := t.ws.y, t.ws.d
	for v := 0; v < t.n; v++ {
		if t.state[v] == basic || t.hi[v]-t.lo[v] < tol && !math.IsInf(t.hi[v], 1) {
			continue
		}
		dv := c[v]
		for _, tm := range t.cols[v] {
			dv -= y[tm.Var] * tm.Coef
		}
		d[v] = dv
	}
}

// ftranColumn computes the direction w = B⁻¹·A_enter into the
// workspace's w vector by one hypersparse FTRAN against the factors.
func (t *tableau) ftranColumn(enter int) {
	w := t.ws.w
	clear(w)
	col := t.cols[enter]
	for _, tm := range col {
		w[tm.Var] += tm.Coef
	}
	t.f.ftranSparse(w, col)
}

// binvRow returns row r of B⁻¹ (the BTRAN of the r-th unit vector),
// solved into the workspace's rho scratch, and the rows where it is
// nonzero in ascending order. rho is zero outside that pattern until the
// next call, which clears it first.
func (t *tableau) binvRow(r int) (rho []float64, pat []int32) {
	ws := t.ws
	for _, i := range ws.rhoPat {
		ws.rho[i] = 0
	}
	ws.rhoPat = t.f.btranUnit(r, ws.rho, ws.rhoPat[:0])
	return ws.rho, ws.rhoPat
}

// pivotRow forms row r of the simplex tableau, α_r = (B⁻¹)_r·A, and
// writes its nonzeros over the nonbasic columns that can move — the
// columns the dual ratio test and Gomory separation read — into the
// workspace's rowIdx/rowVal in ascending column order, returning their
// count. It gathers the rows of ρ = (B⁻¹)_r's pattern in ascending row
// order from the row-wise copy of A, plus one slack per row, into an
// accumulator that is zero outside the columns a column bitset marks.
// cols lists each column's rows in ascending order, so every α_rj sums
// the terms of the column-wise dot product ρ·A_j in its order.
func (t *tableau) pivotRow(r int) int {
	ws := t.ws
	rho, pat := t.binvRow(r)
	acc, mark := ws.acc, ws.colMark
	for _, i := range pat {
		ri := rho[i]
		for _, tm := range ws.rowTerms[ws.rowOff[i]:ws.rowOff[i+1]] {
			acc[tm.Var] += ri * tm.Coef
			setMark(mark, int32(tm.Var))
		}
		s := int32(t.nStru) + i
		acc[s] = ri
		setMark(mark, s)
	}
	nz := 0
	for wi, word := range mark {
		mark[wi] = 0
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			a := acc[j]
			acc[j] = 0
			if a == 0 || t.state[j] == basic ||
				t.hi[j]-t.lo[j] < tol && !math.IsInf(t.hi[j], 1) {
				continue
			}
			ws.rowIdx[nz], ws.rowVal[nz] = j, a
			nz++
		}
	}
	return nz
}

// ErrBadModel reports structurally invalid model input.
var ErrBadModel = errors.New("lp: invalid model")
