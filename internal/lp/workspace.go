package lp

// The kernel memory model (see DESIGN.md, "Sparse kernel"): every piece
// of scratch a simplex run needs — the column-sparse constraint matrix,
// the basis representation (sparse LU factors plus an eta file), the
// working bounds/costs/values and the per-iteration vectors — lives in a
// Workspace that is reused from solve to solve. Branch and bound
// performs thousands of LP solves per chip; with a per-worker Workspace
// the steady-state warm path allocates nothing (pinned by
// TestSolveFromSteadyStateAllocs and the make bench-kernel gate).
//
// The Workspace also caches the factorization itself: the basis
// representation is maintained across pivots by product-form (eta)
// updates, and when the next SolveFrom installs exactly the basis the
// workspace already holds factors for, refactorization is skipped
// entirely (WorkspaceReuseCount). Numerical hygiene comes from
// refactorization: the factors are rebuilt from scratch
// (RefactorizationCount) as soon as the eta file holds more nonzeros
// than they do, and at the latest after refactorEvery eta updates; every
// warm result is still verified against the original rows before it is
// trusted.

// defaultRefactorEvery is the number of product-form (eta) updates the
// kernel lets accumulate on the basis representation — across solves,
// thanks to the factorization cache — before forcing a from-scratch
// refactorization. On the layout models the eta-fill trigger (see
// applyEta) fires long before 512 updates.
const defaultRefactorEvery = 512

var refactorEvery = defaultRefactorEvery

// SetRefactorInterval sets how many eta (product-form) updates may be
// applied to the LU factors before the kernel forces a from-scratch
// refactorization, returning the previous value. n ≤ 0 restores the
// default. The eta-fill trigger stays on under any interval. Interval 1
// refactorizes after every pivot — the reference behaviour the
// numerical-drift property tests compare the eta path against. Not safe
// to call while any solve is in flight.
func SetRefactorInterval(n int) int {
	prev := refactorEvery
	if n <= 0 {
		n = defaultRefactorEvery
	}
	refactorEvery = n
	return prev
}

// Workspace is the reusable scratch memory of the LP kernel. A Problem
// lazily creates one on first solve and keeps it for its lifetime;
// branch-and-bound workers attach one per worker clone explicitly
// (Problem.SetWorkspace) so the search hot loop runs entirely on
// recycled memory. A Workspace must not be shared between Problems that
// solve concurrently — like the Problem itself, it assumes one solve in
// flight at a time.
type Workspace struct {
	// Column-cache identity: the problem and revision (row/variable
	// count) the cols arena was built for. Any mismatch rebuilds the
	// arena and invalidates the factorization cache.
	owner *Problem
	rev   int64

	m, nStru, n int

	// cols is the column-sparse constraint matrix over the full tableau
	// space (structurals, then one slack per row); terms is the flat
	// arena backing every cols[v] slice. Term.Var is the row index here.
	cols   [][]Term
	terms  []Term
	colOff []int
	// rowTerms is the row-wise copy of A's structural part, row i at
	// rowTerms[rowOff[i]:rowOff[i+1]] with Term.Var the column: pivotRow
	// gathers the pivot row from it.
	rowTerms []Term
	rowOff   []int32

	// lu holds the basis factors, eta file and scratch; rho is the
	// BTRAN-unit output buffer binvRow solves into, zero outside the rows
	// in rhoPat.
	lu     sparseLU
	rho    []float64
	rhoPat []int32

	b, lo, hi, cost, x []float64
	y, w, resid        []float64
	basis              []int
	state              []int8

	// The dual simplex's per-column state: repair holds the costs a cold
	// start repairs with (see newTableau), d the reduced costs the dual
	// keeps across its pivots, and rowIdx/rowVal the nonzeros of its
	// current pivot row. pivotRow accumulates that row in acc, zero
	// outside the columns colMark marks; both are zero between calls.
	repair, d []float64
	rowIdx    []int
	rowVal    []float64
	acc       []float64
	colMark   []uint64

	// Factorization cache: when basisValid, the LU factors + eta file
	// match the basis recorded in cachedBasis over the current cols
	// arena, and the next install of exactly that basis skips the
	// from-scratch rebuild.
	basisValid  bool
	cachedBasis []int

	// updatesSinceRefactor counts eta updates applied to the factors
	// since the last from-scratch factorization — across solves, because
	// the cache carries the factors across solves too.
	updatesSinceRefactor int

	// tabOptimal records that tab holds the final state of a full-tableau
	// solve that ended Optimal and that nothing on the problem has changed
	// since (cleared on every solve entry and bound-revision mismatch).
	// Gomory separation reads the tableau only while this holds.
	tabOptimal bool

	tab tableau // reused tableau header, one live solve at a time
}

// NewWorkspace returns an empty workspace. Buffers are sized on first
// use and only ever grow.
func NewWorkspace() *Workspace { return &Workspace{} }

// Workspace returns the problem's kernel workspace, creating one on
// first use.
func (p *Problem) Workspace() *Workspace {
	if p.ws == nil {
		p.ws = NewWorkspace()
	}
	return p.ws
}

// SetWorkspace attaches ws as the problem's kernel scratch memory,
// replacing any previous one. Branch-and-bound owns one workspace per
// worker and attaches it to the worker's Problem clone so that every
// solve of the worker's subtree reuses the same buffers and cached
// factorization.
func (p *Problem) SetWorkspace(ws *Workspace) { p.ws = ws }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growS(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

// prepare points the workspace at p: the cols arena is rebuilt if p (or
// its row/variable revision) changed since the last solve, and every
// flat buffer is resized — growing only — to the problem's dimensions.
func (ws *Workspace) prepare(p *Problem) {
	if ws.owner != p || ws.rev != p.rev ||
		ws.m != len(p.rows) || ws.nStru != len(p.cost) {
		ws.rebuildCols(p)
	}
	m, n := ws.m, ws.n
	ws.lu.ensure(m)
	// rho is zero outside its pattern, which must be cleared while the
	// pattern's rows still index it: growF may reslice it to another m.
	for _, i := range ws.rhoPat {
		ws.rho[i] = 0
	}
	ws.rhoPat = growI32(ws.rhoPat, m)[:0]
	ws.rho = growF(ws.rho, m)
	ws.b = growF(ws.b, m)
	ws.y = growF(ws.y, m)
	ws.w = growF(ws.w, m)
	ws.resid = growF(ws.resid, m)
	ws.lo = growF(ws.lo, n)
	ws.hi = growF(ws.hi, n)
	ws.cost = growF(ws.cost, n)
	ws.x = growF(ws.x, n)
	ws.repair = growF(ws.repair, n)
	ws.d = growF(ws.d, n)
	ws.rowIdx = growI(ws.rowIdx, n)
	ws.rowVal = growF(ws.rowVal, n)
	ws.acc = growF(ws.acc, n)
	ws.colMark = growU64(ws.colMark, (n+63)/64)
	ws.basis = growI(ws.basis, m)
	if !ws.basisValid {
		// Content is only meaningful while the cache is valid; when it is,
		// the dimensions cannot have changed, so growI never reallocates
		// a live cache away.
		ws.cachedBasis = growI(ws.cachedBasis, m)[:0]
	}
	ws.state = growS(ws.state, n)
}

// rebuildCols builds the column-sparse tableau matrix for p into the
// term arena: structural columns gathered from the rows, then one unit
// slack column per row; and next to it the row-wise copy of the
// structural part. Invalidates the factorization cache — the factors
// are meaningless over a different matrix.
func (ws *Workspace) rebuildCols(p *Problem) {
	m := len(p.rows)
	nStru := len(p.cost)
	n := nStru + m
	ws.owner, ws.rev = p, p.rev
	ws.m, ws.nStru, ws.n = m, nStru, n
	ws.basisValid = false
	ws.updatesSinceRefactor = refactorEvery // force a factorization before reuse

	total := m
	for _, r := range p.rows {
		total += len(r.terms)
	}
	if cap(ws.terms) < total {
		ws.terms = make([]Term, total)
	} else {
		ws.terms = ws.terms[:total]
	}
	if cap(ws.cols) < n {
		ws.cols = make([][]Term, n)
	} else {
		ws.cols = ws.cols[:n]
	}
	if cap(ws.colOff) < nStru+1 {
		ws.colOff = make([]int, nStru+1)
	} else {
		ws.colOff = ws.colOff[:nStru+1]
	}
	off := ws.colOff
	for i := range off {
		off[i] = 0
	}
	for _, r := range p.rows {
		for _, t := range r.terms {
			off[t.Var+1]++
		}
	}
	for v := 0; v < nStru; v++ {
		off[v+1] += off[v]
	}
	fill := off // reuse as running fill cursor: fill[v] advances to off[v+1]
	for i, r := range p.rows {
		for _, t := range r.terms {
			ws.terms[fill[t.Var]] = Term{Var: i, Coef: t.Coef}
			fill[t.Var]++
		}
	}
	// fill[v] now holds the end offset of column v.
	start := 0
	for v := 0; v < nStru; v++ {
		ws.cols[v] = ws.terms[start:fill[v]:fill[v]]
		start = fill[v]
	}
	base := start // == total - m
	for i := 0; i < m; i++ {
		ws.terms[base+i] = Term{Var: i, Coef: 1}
		ws.cols[nStru+i] = ws.terms[base+i : base+i+1 : base+i+1]
	}

	if cap(ws.rowTerms) < base {
		ws.rowTerms = make([]Term, 0, base)
	}
	ws.rowTerms = ws.rowTerms[:0]
	ws.rowOff = growI32(ws.rowOff, m+1)
	ws.rowOff[0] = 0
	for i, r := range p.rows {
		ws.rowTerms = append(ws.rowTerms, r.terms...)
		ws.rowOff[i+1] = int32(len(ws.rowTerms))
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
