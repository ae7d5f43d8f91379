package milp

import (
	"fmt"
	"math"
	"time"

	"columbas/internal/lp"
)

// VarID identifies a model variable.
type VarID int

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal integer solution.
	Optimal Status = iota
	// Feasible: integer solution found but optimality not proven before a
	// node or time budget expired.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
	// Limit: budget exhausted with no integer solution found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "unknown"
}

// Expr is a linear expression Σ coefᵢ·varᵢ + Const, built incrementally.
type Expr struct {
	Terms []lp.Term
	Const float64
}

// NewExpr returns an empty expression.
func NewExpr() *Expr { return &Expr{} }

// Add appends coef·v to the expression and returns it for chaining.
func (e *Expr) Add(v VarID, coef float64) *Expr {
	e.Terms = append(e.Terms, lp.Term{Var: int(v), Coef: coef})
	return e
}

// AddConst adds a constant offset to the expression.
func (e *Expr) AddConst(c float64) *Expr {
	e.Const += c
	return e
}

// AddExpr appends all terms of f (including its constant).
func (e *Expr) AddExpr(f *Expr) *Expr {
	e.Terms = append(e.Terms, f.Terms...)
	e.Const += f.Const
	return e
}

// Sum builds an expression Σ 1·vᵢ.
func Sum(vs ...VarID) *Expr {
	e := NewExpr()
	for _, v := range vs {
		e.Add(v, 1)
	}
	return e
}

// T builds a single-term expression coef·v.
func T(v VarID, coef float64) *Expr { return NewExpr().Add(v, coef) }

// Model is a MILP under construction.
type Model struct {
	prob   *lp.Problem
	names  []string
	byName map[string]VarID // first variable declared under each name
	isInt  []bool
	groups [][]VarID // disjunction groups: exactly one member is 0
	objSet bool
	objC   float64 // constant part of the objective
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{prob: lp.NewProblem(), byName: map[string]VarID{}} }

// NumVars returns the number of variables declared so far.
func (m *Model) NumVars() int { return len(m.names) }

// NumRows returns the number of constraints added so far.
func (m *Model) NumRows() int { return m.prob.NumRows() }

// NumInt returns the number of integer (incl. binary) variables.
func (m *Model) NumInt() int {
	n := 0
	for _, b := range m.isInt {
		if b {
			n++
		}
	}
	return n
}

// Var declares a continuous variable with bounds [lo, hi].
func (m *Model) Var(name string, lo, hi float64) VarID {
	return m.addVar(name, lo, hi, false)
}

// Binary declares a {0,1} variable.
func (m *Model) Binary(name string) VarID {
	return m.addVar(name, 0, 1, true)
}

// Int declares an integer variable with bounds [lo, hi].
func (m *Model) Int(name string, lo, hi float64) VarID {
	return m.addVar(name, lo, hi, true)
}

func (m *Model) addVar(name string, lo, hi float64, isInt bool) VarID {
	id := m.prob.AddVar(lo, hi, 0)
	m.names = append(m.names, name)
	m.isInt = append(m.isInt, isInt)
	if m.byName == nil {
		m.byName = map[string]VarID{}
	}
	if _, dup := m.byName[name]; !dup {
		m.byName[name] = VarID(id)
	}
	return VarID(id)
}

// Name returns the declared name of v.
func (m *Model) Name(v VarID) string { return m.names[v] }

// VarByName returns the variable declared under name. When several
// variables share a name (legal — the solver never looks at names) the
// first declaration wins. The second result is false when no variable of
// that name exists. Together with Name this is the name↔VarID round trip
// external model formats (internal/mps) rely on.
func (m *Model) VarByName(name string) (VarID, bool) {
	v, ok := m.byName[name]
	return v, ok
}

// IsInt reports whether v carries an integrality constraint (Int or
// Binary declaration).
func (m *Model) IsInt(v VarID) bool { return m.isInt[v] }

// ObjCoef returns the objective coefficient of v as set by the last
// Minimize call (0 before any).
func (m *Model) ObjCoef(v VarID) float64 { return m.prob.Cost(int(v)) }

// ObjConst returns the constant part of the objective as set by the last
// Minimize call (0 before any).
func (m *Model) ObjConst() float64 { return m.objC }

// Row is a read-only view of one constraint: Terms (sense) RHS. The
// terms slice aliases the model's live storage — callers must not modify
// it.
type Row struct {
	Terms []lp.Term
	Sense lp.Sense
	RHS   float64
}

// Rows returns read-only views of every constraint row in insertion
// order, including the group-sum rows MarkDisjunction adds. The views
// alias live storage: cheap to build, never to be mutated. Model walkers
// (the MPS writer, external format exporters) are the intended callers.
func (m *Model) Rows() []Row {
	rows := make([]Row, m.prob.NumRows())
	for i := range rows {
		terms, sense, rhs := m.prob.Row(i)
		rows[i] = Row{Terms: terms, Sense: sense, RHS: rhs}
	}
	return rows
}

// Bounds returns the current bounds of v.
func (m *Model) Bounds(v VarID) (lo, hi float64) { return m.prob.Bounds(int(v)) }

// SetBounds tightens or replaces the bounds of v.
func (m *Model) SetBounds(v VarID, lo, hi float64) { m.prob.SetBounds(int(v), lo, hi) }

// Fix pins v to a single value.
func (m *Model) Fix(v VarID, val float64) { m.prob.SetBounds(int(v), val, val) }

// AddLE adds the constraint e ≤ rhs.
func (m *Model) AddLE(e *Expr, rhs float64) { m.prob.AddConstraint(e.Terms, lp.LE, rhs-e.Const) }

// AddGE adds the constraint e ≥ rhs.
func (m *Model) AddGE(e *Expr, rhs float64) { m.prob.AddConstraint(e.Terms, lp.GE, rhs-e.Const) }

// AddEQ adds the constraint e = rhs.
func (m *Model) AddEQ(e *Expr, rhs float64) { m.prob.AddConstraint(e.Terms, lp.EQ, rhs-e.Const) }

// Minimize sets the objective to e (minimisation).
func (m *Model) Minimize(e *Expr) {
	costs := make(map[int]float64)
	for _, t := range e.Terms {
		costs[t.Var] += t.Coef
	}
	for v := 0; v < m.prob.NumVars(); v++ {
		m.prob.SetCost(v, costs[v])
	}
	m.objC = e.Const
	m.objSet = true
}

// MarkDisjunction registers a group of binaries of which exactly one must
// be 0 (the paper's q₁+q₂+q₃+q₄ = 3 pattern, constraint (5)). The sum
// constraint itself is added here. Branch-and-bound branches on the whole
// group at once.
func (m *Model) MarkDisjunction(vars []VarID) {
	for _, v := range vars {
		if !m.isInt[v] {
			panic(fmt.Sprintf("milp: disjunction member %s is not integer", m.names[v]))
		}
	}
	m.AddEQ(Sum(vars...), float64(len(vars)-1))
	g := make([]VarID, len(vars))
	copy(g, vars)
	m.groups = append(m.groups, g)
}

// Options controls the branch-and-bound search.
type Options struct {
	// TimeLimit bounds wall-clock search time; 0 means no limit.
	TimeLimit time.Duration
	// Deadline is an absolute wall-clock bound on the search; the zero
	// value means no absolute bound. When both Deadline and TimeLimit are
	// set, the earlier one wins. The deadline is propagated into each
	// worker's LP so even a single oversized relaxation cannot overshoot
	// it.
	Deadline time.Time
	// Interrupt, when non-nil, aborts the search as soon as the channel
	// is closed (the conventional use is a context's Done channel).
	// Workers stop pulling nodes immediately; a worker mid-LP finishes
	// its current relaxation first unless Deadline also fires. The
	// result is assembled from whatever incumbent exists, exactly as for
	// a budget expiry, and Stats.Interrupted is set.
	Interrupt <-chan struct{}
	// NodeLimit bounds the number of explored nodes; 0 means no limit.
	NodeLimit int
	// Start, if non-nil, is a caller-provided integer-feasible assignment
	// (length NumVars) used as the initial incumbent after validation.
	Start []float64
	// RootBasis, if non-nil, warm-starts the root relaxation from a
	// caller-provided LP basis — typically Result.RootBasis of a previous
	// solve of a structurally similar model (the delta-aware pipeline's
	// donor). A basis whose dimensions do not match the prepared root
	// problem (different row count after presolve/cuts, different
	// variable count) is silently ignored by the LP kernel's
	// compatibility check, which falls back to a cold solve; when the
	// root cut loop produces its own basis, that one wins. Ignored under
	// NoWarmStart, and by a model without integer variables: such a
	// model never branches, so its one LP always goes through the
	// presolving Solve.
	RootBasis *lp.Basis
	// Gap is the relative optimality gap at which search stops early
	// (e.g. 0.01 for 1%). 0 means prove optimality.
	Gap float64
	// StallLimit, when positive, stops the search after this many nodes
	// without an incumbent improvement (once an incumbent exists). Big-M
	// placement models have weak relaxations whose gap rarely closes;
	// stalling out with a good incumbent is the practical termination.
	StallLimit int
	// NoGroupBranching disables the k-way disjunction branching and falls
	// back to plain binary branching (ablation).
	NoGroupBranching bool
	// NoCuts disables root-node cut separation — the Gomory and knapsack
	// cover cuts added to the root relaxation before workers start. The
	// layout MILPs always set it; columbamilp exposes it as -no-cuts.
	NoCuts bool
	// NoPresolve disables the search's presolve — root bound tightening,
	// redundant-row removal and coefficient strengthening, plus the
	// per-node bound propagation that discards infeasible nodes before
	// their LP (ablation).
	NoPresolve bool
	// NoWarmStart disables LP basis reuse between parent and child nodes,
	// solving every relaxation cold from the all-slack basis (ablation;
	// also the reference behaviour the solver-equivalence suite compares
	// against).
	NoWarmStart bool
	// Workers is the number of branch-and-bound workers solving LP
	// relaxations concurrently. Each worker explores nodes from the
	// shared best-first frontier on a private copy of the problem and
	// prunes against the freshest incumbent bound. 0 or 1 runs the exact
	// sequential algorithm; a negative value uses runtime.GOMAXPROCS(0).
	//
	// Parallel runs are deterministic by objective: status and optimal
	// objective match the sequential solver (within tolerance), but the
	// returned variable assignment may differ on ties, and budget-limited
	// (Feasible/Limit) outcomes may vary with scheduling.
	Workers int
}

// Result is the outcome of a Solve.
type Result struct {
	Status  Status
	X       []float64
	Obj     float64 // objective of X (meaningful for Optimal/Feasible)
	Bound   float64 // best proven lower bound
	Nodes   int
	Runtime time.Duration
	// Stats is the solve's full counter set (Nodes and Runtime above are
	// retained as convenience aliases of Stats.NodesExplored/Stats.Wall).
	Stats SearchStats
	// RootBasis is the optimal LP basis of the root relaxation (the
	// final cut-loop basis when the root node itself was answered without
	// one), retained so a later solve of a similar model can warm-start
	// from it via Options.RootBasis. Nil when the root never reached an
	// optimal basis (infeasible, interrupted, presolved away).
	RootBasis *lp.Basis
}

// Value returns the solution value of v.
func (r *Result) Value(v VarID) float64 { return r.X[v] }

const intTol = 1e-6

type node struct {
	bound   float64 // parent LP objective (lower bound for the subtree)
	depth   int
	changes []boundChange
	parent  *node
	seq     int // insertion order for deterministic tie-breaking

	// basis is the parent's optimal LP basis (nil at the root). It is an
	// immutable snapshot shared by all siblings, so it travels safely
	// across worker handoffs: whichever worker pops this node warm-starts
	// its relaxation from the parent basis on its own Problem clone.
	// expand clears it once that solve has read it.
	basis *lp.Basis
}

type boundChange struct {
	v      int
	lo, hi float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth // deeper first: dive toward incumbents
	}
	return h[i].seq > h[j].seq // LIFO among equals
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound and returns the best solution found. The
// search runs on opt.Workers concurrent workers (see Options.Workers);
// the model itself is never mutated, so concurrent Solve calls on one
// Model are safe as long as no variables, rows or bounds are added or
// changed while any solve is in flight.
func (m *Model) Solve(opt Options) (*Result, error) {
	if !m.objSet {
		m.Minimize(NewExpr()) // pure feasibility problem
	}
	return newSearch(m, opt).run()
}

// pickBranch selects a branching target given the relaxation solution.
// It prefers disjunction groups whose members are fractional; otherwise it
// returns the most fractional integer variable. Returns (-1, -1) when the
// solution is integer feasible.
func (m *Model) pickBranch(x []float64) (branchVar, branchGroup int) {
	// Disjunction groups first: a group is unresolved if no member is
	// (near-)zero while all are in bounds, or members are fractional.
	bestGroup, bestGroupScore := -1, 0.0
	for gi, g := range m.groups {
		score := 0.0
		resolved := false
		for _, v := range g {
			xv := x[v]
			if xv < intTol {
				resolved = true
				break
			}
			if f := frac(xv); f > intTol {
				score += f
			}
		}
		if !resolved && score > bestGroupScore {
			bestGroupScore = score
			bestGroup = gi
		}
	}
	if bestGroup >= 0 {
		return -1, bestGroup
	}
	return m.pickBranchVarOnly(x)
}

// pickBranchVarOnly returns the most fractional integer variable.
func (m *Model) pickBranchVarOnly(x []float64) (branchVar, branchGroup int) {
	bestVar, bestFrac := -1, intTol
	for v := 0; v < len(m.isInt); v++ {
		if !m.isInt[v] {
			continue
		}
		if f := frac(x[v]); f > bestFrac {
			// Most-fractional: prefer values near .5.
			d := math.Abs(f - 0.5)
			bd := math.Abs(bestFrac - 0.5)
			if bestVar < 0 || d < bd {
				bestVar = v
				bestFrac = f
			}
		}
	}
	return bestVar, -1
}

func frac(x float64) float64 {
	_, f := math.Modf(math.Abs(x))
	return math.Min(f, 1-f)
}

// tryRoundingOn fixes every integer variable to a rounded value — within
// each disjunction group the member with the smallest relaxation value
// goes to 0 and the rest to 1 — re-solves the LP for the continuous
// variables, and returns the resulting point when integer feasible.
// It operates on prob, a worker-private clone of the model's problem
// currently carrying the node bounds; those bounds are restored before
// returning.
func (m *Model) tryRoundingOn(prob *lp.Problem, x []float64) ([]float64, float64, bool) {
	nv := prob.NumVars()
	saveLo := make([]float64, nv)
	saveHi := make([]float64, nv)
	for v := 0; v < nv; v++ {
		saveLo[v], saveHi[v] = prob.Bounds(v)
	}
	defer func() {
		for v := 0; v < nv; v++ {
			prob.SetBounds(v, saveLo[v], saveHi[v])
		}
	}()
	inGroup := map[int]bool{}
	for _, g := range m.groups {
		zero := g[0]
		for _, v := range g {
			inGroup[int(v)] = true
			if x[v] < x[zero] {
				zero = v
			}
		}
		for _, v := range g {
			val := 1.0
			if v == zero {
				val = 0.0
			}
			lo, hi := saveLo[v], saveHi[v]
			if val < lo || val > hi {
				return nil, 0, false // branching already excluded this choice
			}
			prob.SetBounds(int(v), val, val)
		}
	}
	for v := 0; v < nv; v++ {
		if !m.isInt[v] || inGroup[v] {
			continue
		}
		val := math.Round(x[v])
		val = math.Max(val, saveLo[v])
		val = math.Min(val, saveHi[v])
		prob.SetBounds(v, val, val)
	}
	sol, err := prob.Solve()
	if err != nil || sol.Status != lp.Optimal {
		return nil, 0, false
	}
	cand := append([]float64(nil), sol.X...)
	// Validate against the ORIGINAL bounds (restore first via defer order:
	// verify manually here with the saved bounds).
	const ftol = 1e-5
	for v := 0; v < nv; v++ {
		if cand[v] < saveLo[v]-ftol || cand[v] > saveHi[v]+ftol {
			return nil, 0, false
		}
		if m.isInt[v] && frac(cand[v]) > intTol {
			return nil, 0, false
		}
	}
	if !prob.RowsSatisfied(cand, ftol) {
		return nil, 0, false
	}
	obj := m.objC
	for v := 0; v < nv; v++ {
		obj += prob.Cost(v) * cand[v]
	}
	return cand, obj, true
}

// CheckStart reports whether x is an integer-feasible assignment for the
// model (length, bounds, integrality, every constraint row) and returns
// its objective value when it is. It is exactly the validation Solve
// applies to Options.Start, exported so delta-aware callers can test a
// donor design's vector before offering it as a starting incumbent.
func (m *Model) CheckStart(x []float64) (bool, float64) { return m.checkFeasible(x) }

// checkFeasible verifies a candidate assignment against all constraints,
// bounds and integrality, returning its objective when feasible.
func (m *Model) checkFeasible(x []float64) (bool, float64) {
	if len(x) != m.prob.NumVars() {
		return false, 0
	}
	const ftol = 1e-5
	for v := 0; v < m.prob.NumVars(); v++ {
		lo, hi := m.prob.Bounds(v)
		if x[v] < lo-ftol || x[v] > hi+ftol {
			return false, 0
		}
		if m.isInt[v] && frac(x[v]) > intTol {
			return false, 0
		}
	}
	if !m.prob.RowsSatisfied(x, ftol) {
		return false, 0
	}
	obj := m.objC
	for v := 0; v < m.prob.NumVars(); v++ {
		obj += m.prob.Cost(v) * x[v]
	}
	return true, obj
}
