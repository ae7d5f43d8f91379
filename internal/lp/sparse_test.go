package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkInverseOps verifies the basis representation through the same
// FTRAN operation the simplex uses: B⁻¹·A_v must equal the j-th unit
// vector for the variable v basic in row j, within the 1e-6 drift
// budget.
func checkInverseOps(t *testing.T, p *Problem, seed int64, step int) {
	t.Helper()
	tb := &p.ws.tab
	m := tb.m
	for j := 0; j < m; j++ {
		tb.ftranColumn(tb.basis[j])
		for i := 0; i < m; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(tb.ws.w[i]-want) > 1e-6 {
				t.Fatalf("seed %d step %d: (B⁻¹B)[%d][%d] = %v, want %v",
					seed, step, i, j, tb.ws.w[i], want)
			}
		}
	}
}

// TestSolveMatchesVertexOracle solves random boxed LPs cold and
// requires the status and objective the exhaustive vertex oracle proves.
// Some of the solves must cross the eta-fill trigger, so the oracle also
// checks solves that refactorized mid-run.
func TestSolveMatchesVertexOracle(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var o vertexOracle
	refactorized := 0
	for seed := int64(0); seed < seeds; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)))
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		o.check(t, p, sol, seed, -1)
		if p.RefactorizationCount() > 0 {
			refactorized++
		}
	}
	if refactorized == 0 {
		t.Fatal("no solve crossed the eta-fill trigger")
	}
	t.Logf("%d of %d solves refactorized", refactorized, seeds)
}

// TestSparseBtranConsistency checks the transpose solve directly: after
// an optimal sparse solve, a random position-space vector c pushed
// through BTRAN must satisfy Bᵀy = c, i.e. y·A_{basis[j]} = c_j for
// every basis column.
func TestSparseBtranConsistency(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Status != Optimal {
			continue
		}
		tb := &p.ws.tab
		m := tb.m
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		cb := tb.f.cw
		copy(cb[:m], c)
		y := make([]float64, m)
		tb.f.btran(cb, y)
		for j := 0; j < m; j++ {
			dot := 0.0
			for _, tm := range tb.cols[tb.basis[j]] {
				dot += y[tm.Var] * tm.Coef
			}
			if math.Abs(dot-c[j]) > 1e-6 {
				t.Fatalf("seed %d: (Bᵀy)[%d] = %v, want %v", seed, j, dot, c[j])
			}
		}
	}
}

// TestSparseUpdatesMatchRefactorization is the numerical-drift property
// of the product-form kernel: with periodic refactorization disabled,
// 60-pivot-chain solves accumulate eta columns on the LU factors across
// solves via the factorization cache, and the factor-plus-eta operator
// must still agree with (a) the basis it represents after every solve,
// (b) a from-scratch refactorization of the final basis, and (c) the
// objectives of a reference run that refactorizes after every pivot —
// to 1e-6.
func TestSparseUpdatesMatchRefactorization(t *testing.T) {
	const steps = 60
	runChain := func(seed int64, check bool) []float64 {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		var objs []float64
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: root: %v", seed, err)
		}
		basis := sol.Basis()
		for step := 0; step < steps; step++ {
			tightenOne(p, rng)
			sol, err = p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if sol.Status == Optimal {
				objs = append(objs, sol.Obj)
				if check {
					checkInverseOps(t, p, seed, step)
				}
			} else {
				objs = append(objs, math.Inf(1))
			}
			if nb := sol.Basis(); nb != nil {
				basis = nb
			}
		}
		if check && p.ws.tab.m > 0 {
			// Final cross-check: a from-scratch refactorization of the same
			// basis must leave every FTRAN answer where the eta-updated
			// factors already had it.
			tb := &p.ws.tab
			m := tb.m
			before := make([]float64, 0, m*m)
			for j := 0; j < m; j++ {
				tb.ftranColumn(tb.basis[j])
				before = append(before, tb.ws.w[:m]...)
			}
			if !tb.factorize() {
				t.Fatalf("seed %d: final basis singular on refactorization", seed)
			}
			for j := 0; j < m; j++ {
				tb.ftranColumn(tb.basis[j])
				for i := 0; i < m; i++ {
					if math.Abs(before[j*m+i]-tb.ws.w[i]) > 1e-6 {
						t.Fatalf("seed %d: eta-updated (B⁻¹B)[%d][%d] = %v, refactorized %v",
							seed, i, j, before[j*m+i], tb.ws.w[i])
					}
				}
			}
		}
		return objs
	}

	for seed := int64(0); seed < 8; seed++ {
		prev := SetRefactorInterval(1 << 30)
		etaObjs := runChain(seed, true)
		SetRefactorInterval(1)
		refObjs := runChain(seed, false)
		SetRefactorInterval(prev)

		if len(etaObjs) != len(refObjs) {
			t.Fatalf("seed %d: %d eta objectives vs %d reference", seed, len(etaObjs), len(refObjs))
		}
		for i := range etaObjs {
			a, b := etaObjs[i], refObjs[i]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("seed %d step %d: eta status differs from reference", seed, i)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-5 {
				t.Fatalf("seed %d step %d: eta obj %v, reference obj %v", seed, i, a, b)
			}
		}
	}
}

// TestSparseWorkspaceReuse pins the factorization cache: re-solving an
// unchanged problem from its own optimal basis must reuse the factors
// (no refactorization), and the kernel counters must obey their
// identities.
func TestSparseWorkspaceReuse(t *testing.T) {
	var p *Problem
	var sol *Solution
	var err error
	for seed := int64(0); ; seed++ {
		if seed == 64 {
			t.Fatal("no seed produced an optimal root")
		}
		p = randomLP(rand.New(rand.NewSource(seed)))
		sol, err = p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d root: %v", seed, err)
		}
		if sol.Status == Optimal {
			break
		}
	}
	basis := sol.Basis()
	refacBefore := p.RefactorizationCount()
	for i := 0; i < 5; i++ {
		sol, err = p.SolveFrom(basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("resolve %d: status %v err %v", i, sol.Status, err)
		}
		basis = sol.Basis()
	}
	if got := p.WorkspaceReuseCount(); got != 5 {
		t.Errorf("WorkspaceReuseCount = %d, want 5", got)
	}
	if got := p.RefactorizationCount(); got != refacBefore {
		t.Errorf("RefactorizationCount grew %d -> %d on cache hits", refacBefore, got)
	}
	if p.WorkspaceReuseCount() > p.WarmStartCount() {
		t.Errorf("WorkspaceReuses %d > WarmStarts %d", p.WorkspaceReuseCount(), p.WarmStartCount())
	}
	// Now force basis changes until a from-scratch factorization happens.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40 && p.RefactorizationCount() == refacBefore; i++ {
		tightenOne(p, rng)
		sol, err = p.SolveFrom(basis)
		if err != nil {
			t.Fatalf("tighten resolve %d: %v", i, err)
		}
		if nb := sol.Basis(); nb != nil {
			basis = nb
		}
	}
	if p.FillInCount() < 0 {
		t.Errorf("FillInCount = %d, want ≥ 0", p.FillInCount())
	}
	if p.EtaUpdateCount() > p.PivotCount() {
		t.Errorf("EtaUpdates %d > Pivots %d", p.EtaUpdateCount(), p.PivotCount())
	}
}

// TestWarmChainsMatchVertexOracle drives branch-and-bound-style warm
// chains and checks every step's status and objective against the
// exhaustive vertex oracle of the tightened problem.
func TestWarmChainsMatchVertexOracle(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	var o vertexOracle
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d root: %v", seed, err)
		}
		o.check(t, p, sol, seed, -1)
		basis := sol.Basis()
		for step := 0; step < 20; step++ {
			tightenOne(p, rng)
			sol, err = p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			o.check(t, p, sol, seed, step)
			if nb := sol.Basis(); nb != nil {
				basis = nb
			}
		}
	}
}

// vertexOracle solves a small LP whose variables are all boxed by
// exhaustive vertex enumeration, independently of the simplex. Every
// vertex of {x : rows, lo ≤ x ≤ hi} solves nv active hyperplanes: k rows
// taken as equalities and one bound of each of the other nv−k
// variables. Solving every such system and keeping the feasible points
// finds the optimum; the region is a polytope, so no feasible vertex
// means infeasible. Buffers are reused across calls.
type vertexOracle struct {
	a          []float64 // dense nr×nv row coefficients
	m          []float64 // k×k system over the free variables, LU in place
	piv        []int     // row permutation of m
	rhs, x     []float64
	rows, free []int
}

// check fails the test unless sol has the oracle's status and, when
// optimal, its objective within 1e-6. step < 0 labels a root solve.
func (o *vertexOracle) check(t *testing.T, p *Problem, sol *Solution, seed int64, step int) {
	t.Helper()
	st, obj := o.solve(p)
	if sol.Status != st {
		t.Fatalf("seed %d step %d: status %v, oracle %v", seed, step, sol.Status, st)
	}
	if st == Optimal && math.Abs(sol.Obj-obj) > 1e-6 {
		t.Fatalf("seed %d step %d: obj %v, oracle %v", seed, step, sol.Obj, obj)
	}
}

func (o *vertexOracle) solve(p *Problem) (Status, float64) {
	const ftol = 1e-7
	nv, nr := p.NumVars(), p.NumRows()
	o.a = growF(o.a, nr*nv)
	for i := range o.a {
		o.a[i] = 0
	}
	for r, row := range p.rows {
		for _, tm := range row.terms {
			o.a[r*nv+tm.Var] = tm.Coef
		}
	}
	o.x = growF(o.x, nv)
	best, found := Inf, false
	for rmask := 0; rmask < 1<<nr; rmask++ {
		o.rows = o.rows[:0]
		for r := 0; r < nr; r++ {
			if rmask&(1<<r) != 0 {
				o.rows = append(o.rows, r)
			}
		}
		k := len(o.rows)
		if k > nv {
			continue
		}
		for fmask := 0; fmask < 1<<nv; fmask++ {
			o.free = o.free[:0]
			for v := 0; v < nv; v++ {
				if fmask&(1<<v) != 0 {
					o.free = append(o.free, v)
				}
			}
			if len(o.free) != k || !o.factor(nv) {
				continue
			}
			// Every lo/hi choice for the nv−k variables held at a bound.
			for bmask := 0; bmask < 1<<nv; bmask++ {
				if bmask&fmask != 0 {
					continue
				}
				for v := 0; v < nv; v++ {
					if fmask&(1<<v) != 0 {
						continue
					}
					if bmask&(1<<v) != 0 {
						o.x[v] = p.hi[v]
					} else {
						o.x[v] = p.lo[v]
					}
				}
				o.solveFree(p, nv)
				if !vertexFeasible(p, o.x, ftol) {
					continue
				}
				obj := 0.0
				for v, xv := range o.x {
					obj += p.cost[v] * xv
				}
				if obj < best {
					best, found = obj, true
				}
			}
		}
	}
	if !found {
		return Infeasible, 0
	}
	return Optimal, best
}

// factor LU-factorizes, with partial pivoting, the k×k system of the
// selected rows over the free variables. False when it is singular.
func (o *vertexOracle) factor(nv int) bool {
	k := len(o.rows)
	o.m = growF(o.m, k*k)
	o.piv = growI(o.piv, k)
	for i, r := range o.rows {
		o.piv[i] = i
		for j, v := range o.free {
			o.m[i*k+j] = o.a[r*nv+v]
		}
	}
	for c := 0; c < k; c++ {
		pr := c
		for i := c + 1; i < k; i++ {
			if math.Abs(o.m[i*k+c]) > math.Abs(o.m[pr*k+c]) {
				pr = i
			}
		}
		if math.Abs(o.m[pr*k+c]) < 1e-9 {
			return false
		}
		if pr != c {
			for j := 0; j < k; j++ {
				o.m[c*k+j], o.m[pr*k+j] = o.m[pr*k+j], o.m[c*k+j]
			}
			o.piv[c], o.piv[pr] = o.piv[pr], o.piv[c]
		}
		for i := c + 1; i < k; i++ {
			f := o.m[i*k+c] / o.m[c*k+c]
			o.m[i*k+c] = f
			for j := c + 1; j < k; j++ {
				o.m[i*k+j] -= f * o.m[c*k+j]
			}
		}
	}
	return true
}

// solveFree fills the free variables of o.x: the selected rows hold as
// equalities with every other variable at its chosen bound.
func (o *vertexOracle) solveFree(p *Problem, nv int) {
	k := len(o.rows)
	o.rhs = growF(o.rhs, k)
	for i := 0; i < k; i++ {
		r := o.rows[o.piv[i]]
		b := p.rows[r].rhs
		for _, tm := range p.rows[r].terms {
			if !containsInt(o.free, tm.Var) {
				b -= tm.Coef * o.x[tm.Var]
			}
		}
		o.rhs[i] = b
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			o.rhs[i] -= o.m[i*k+j] * o.rhs[j]
		}
	}
	for i := k - 1; i >= 0; i-- {
		for j := i + 1; j < k; j++ {
			o.rhs[i] -= o.m[i*k+j] * o.rhs[j]
		}
		o.rhs[i] /= o.m[i*k+i]
	}
	for j, v := range o.free {
		o.x[v] = o.rhs[j]
	}
}

func vertexFeasible(p *Problem, x []float64, ftol float64) bool {
	for v, xv := range x {
		if xv < p.lo[v]-ftol || xv > p.hi[v]+ftol {
			return false
		}
	}
	return p.RowsSatisfied(x, ftol)
}

func containsInt(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// fillLP builds a mid-size LP of LE and GE rows only — presolve passes
// it through, so Solve runs the full tableau on the problem's own
// workspace — whose rows are dense enough that a cold solve's eta file
// outgrows the LU factors several times.
func fillLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	const nv, nr = 60, 40
	for v := 0; v < nv; v++ {
		p.AddVar(0, 5+10*rng.Float64(), -1-rng.Float64())
	}
	for r := 0; r < nr; r++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if rng.Intn(4) == 0 {
				terms = append(terms, Term{Var: v, Coef: float64(1 + rng.Intn(5))})
			}
		}
		if r%4 == 0 {
			p.AddConstraint(terms, GE, float64(1+rng.Intn(5)))
		} else {
			p.AddConstraint(terms, LE, float64(40+rng.Intn(40)))
		}
	}
	return p
}

// TestSolveRefactorizesOnEtaFill pins the one-shot trigger: a cold Solve
// refactorizes as soon as the eta file holds more nonzeros than the
// factors, so after a solve that crossed the trigger several times the
// eta file is no larger than the factors, and the outcome matches a
// reference run that refactorizes after every pivot.
func TestSolveRefactorizesOnEtaFill(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := fillLP(rand.New(rand.NewSource(seed)))
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := p.RefactorizationCount(); n < 3 {
			t.Fatalf("seed %d: %d refactorizations in %d pivots, want the trigger crossed at least 3 times",
				seed, n, sol.Iters)
		}
		if eta, lu := p.ws.lu.etaNonzeros(), p.ws.lu.factorNonzeros(); eta > lu {
			t.Fatalf("seed %d: eta file holds %d nonzeros, factors %d", seed, eta, lu)
		}
		prev := SetRefactorInterval(1)
		ref, err := fillLP(rand.New(rand.NewSource(seed))).Solve()
		SetRefactorInterval(prev)
		if err != nil {
			t.Fatalf("seed %d (interval 1): %v", seed, err)
		}
		if sol.Status != ref.Status {
			t.Fatalf("seed %d: status %v, interval-1 reference %v", seed, sol.Status, ref.Status)
		}
		if sol.Status == Optimal && math.Abs(sol.Obj-ref.Obj) > 1e-6 {
			t.Fatalf("seed %d: obj %v, interval-1 reference %v", seed, sol.Obj, ref.Obj)
		}
	}
}

// TestSolveFromKeepsCountTrigger pins that branch and bound keeps the
// count trigger alone: with the interval out of reach, neither the cold
// SolveFrom root nor a warm repair refactorizes when the eta file
// outgrows the factors.
func TestSolveFromKeepsCountTrigger(t *testing.T) {
	prev := SetRefactorInterval(1 << 30)
	defer SetRefactorInterval(prev)
	rng := rand.New(rand.NewSource(1))
	p := fillLP(rng)
	longer := func() bool { return p.ws.lu.etaNonzeros() > p.ws.lu.factorNonzeros() }
	sol, err := p.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: status %v err %v", sol.Status, err)
	}
	if !longer() {
		t.Fatal("the cold root refactorized on eta fill")
	}
	basis := sol.Basis()
	grown := 0 // warm repairs that pivoted and left the eta file longer
	for step := 0; step < 20; step++ {
		tightenOne(p, rng)
		warm := p.WarmStartCount()
		sol, err = p.SolveFrom(basis)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if p.WarmStartCount() > warm && sol.Iters > 0 && longer() {
			grown++
		}
		if nb := sol.Basis(); nb != nil {
			basis = nb
		}
	}
	if grown == 0 {
		t.Fatal("no warm repair left the eta file longer than the factors")
	}
}
