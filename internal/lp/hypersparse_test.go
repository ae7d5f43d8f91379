package lp

import (
	"math"
	"math/rand"
	"testing"
)

// sparseRandomLP builds a feasible LP of m rows with two to five
// nonzeros each over m to 2m bounded structurals, with non-integer
// coefficients so that the order in which a solve sums its terms shows
// in the last bits. Every row holds at a random point inside the
// bounds, and the costs have random signs, so a cold solve repairs many
// rows and leaves an LU with nontrivial L and U plus an eta file.
func sparseRandomLP(rng *rand.Rand, m int) *Problem {
	p := NewProblem()
	nv := m + rng.Intn(m+1)
	x0 := make([]float64, nv)
	for v := 0; v < nv; v++ {
		hi := 1.0
		if rng.Intn(3) == 0 {
			hi = 2 + 8*rng.Float64()
		}
		p.AddVar(0, hi, rng.NormFloat64())
		x0[v] = hi * rng.Float64()
	}
	for r := 0; r < m; r++ {
		k := 2 + rng.Intn(4)
		terms := make([]Term, 0, k)
		lhs := 0.0
		for j := 0; j < k; j++ {
			v := rng.Intn(nv)
			c := rng.NormFloat64()
			terms = append(terms, Term{Var: v, Coef: c})
			lhs += c * x0[v]
		}
		switch rng.Intn(6) {
		case 0:
			p.AddConstraint(terms, EQ, lhs)
		case 1:
			p.AddConstraint(terms, GE, lhs-rng.Float64())
		default:
			p.AddConstraint(terms, LE, lhs+rng.Float64())
		}
	}
	return p
}

// tightenDown is a down branch: it moves the upper bound of a structural
// the last solution holds above its lower bound to halfway between the
// two, so the warm repair pivots. It returns the variable and its old
// upper bound, or −1 when it found none.
func tightenDown(p *Problem, x []float64, rng *rand.Rand) (int, float64) {
	for try := 0; try < 32; try++ {
		v := rng.Intn(p.NumVars())
		lo, hi := p.Bounds(v)
		if x[v] > lo+1e-3 {
			p.SetBounds(v, lo, math.Min(hi, lo+(x[v]-lo)/2))
			return v, hi
		}
	}
	return -1, 0
}

// hypersparseCounts tallies what checkHypersparse compared.
type hypersparseCounts struct {
	states, nontrivial, btran, ftran, rows int
}

// checkHypersparse compares, on the factors the workspace holds after a
// solve, every hypersparse solve against its dense counterpart bit for
// bit (±0 equal): binvRow(r) against btran of e_r for every row r, with
// its pattern ascending and holding every nonzero; pivotRow(r) against
// the column-wise dot products ρ·A_j over the nonbasic, non-fixed
// columns in ascending order; and ftranColumn(j) against ftran for every
// column j. States whose factors a failed refactorization left unusable
// are skipped.
func checkHypersparse(t *testing.T, p *Problem, label string, n *hypersparseCounts) {
	t.Helper()
	tb := &p.ws.tab
	if tb.invBad || tb.m == 0 {
		return
	}
	f, ws := tb.f, tb.ws
	m := tb.m
	n.states++
	if len(f.lIdx) > 0 && len(f.uIdx) > 0 && len(f.etaPos) > 0 {
		n.nontrivial++
	}
	c := make([]float64, m)
	dense := make([]float64, m)
	inPat := make([]bool, m)
	for r := 0; r < m; r++ {
		clear(c)
		c[r] = 1
		f.btran(c, dense)
		rho, pat := tb.binvRow(r)
		clear(inPat)
		for k, i := range pat {
			if k > 0 && pat[k-1] >= i {
				t.Fatalf("%s: row %d: pattern not ascending: %v", label, r, pat)
			}
			inPat[i] = true
		}
		for i := 0; i < m; i++ {
			if rho[i] != dense[i] {
				t.Fatalf("%s: binvRow(%d)[%d] = %v, dense btran %v", label, r, i, rho[i], dense[i])
			}
			if dense[i] != 0 && !inPat[i] {
				t.Fatalf("%s: binvRow(%d): nonzero row %d outside the pattern", label, r, i)
			}
		}
		n.btran++
		nz := tb.pivotRow(r)
		k := 0
		for j := 0; j < tb.n; j++ {
			if tb.state[j] == basic || tb.hi[j]-tb.lo[j] < tol && !math.IsInf(tb.hi[j], 1) {
				continue
			}
			a := 0.0
			for _, tm := range tb.cols[j] {
				a += dense[tm.Var] * tm.Coef
			}
			if a == 0 {
				continue
			}
			if k >= nz {
				t.Fatalf("%s: pivot row %d has %d entries, column pass more", label, r, nz)
			}
			if ws.rowIdx[k] != j || ws.rowVal[k] != a {
				t.Fatalf("%s: pivot row %d, entry %d: column %d α %v, column pass %d α %v",
					label, r, k, ws.rowIdx[k], ws.rowVal[k], j, a)
			}
			k++
		}
		if k != nz {
			t.Fatalf("%s: pivot row %d has %d entries, column pass %d", label, r, nz, k)
		}
		n.rows++
	}
	for j := 0; j < tb.n; j++ {
		clear(dense)
		for _, tm := range tb.cols[j] {
			dense[tm.Var] += tm.Coef
		}
		f.ftran(dense)
		tb.ftranColumn(j)
		for i := 0; i < m; i++ {
			if ws.w[i] != dense[i] {
				t.Fatalf("%s: ftranColumn(%d)[%d] = %v, dense ftran %v", label, j, i, ws.w[i], dense[i])
			}
		}
		n.ftran++
	}
}

// TestHypersparseSolvesMatchDense is the exactness gate of the
// hypersparse solves (make bench-kernel runs it): on sparse LPs of 40–149
// rows, after a cold solve and after every step of a down-branch warm
// chain — eta files, eta-fill refactorizations and factorization-cache
// hits included — every hypersparse FTRAN, BTRAN and pivot row must
// equal the dense solve bit for bit. A step that leaves the LP without
// an optimum is compared too, then undone. Each chain ends with an
// explicit refactorization of its last basis and a final comparison on
// the fresh factors.
func TestHypersparseSolvesMatchDense(t *testing.T) {
	lps, steps := 60, 12
	if testing.Short() {
		lps = 20
	}
	var n hypersparseCounts
	for seed := int64(0); seed < int64(lps); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 40 + rng.Intn(110)
		p := sparseRandomLP(rng, m)
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkHypersparse(t, p, "cold", &n)
		basis := sol.Basis()
		x := append([]float64(nil), sol.X...)
		for step := 0; step < steps && basis != nil; step++ {
			v, hi := tightenDown(p, x, rng)
			if v < 0 {
				break
			}
			sol, err = p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkHypersparse(t, p, "warm", &n)
			if sol.Status != Optimal {
				lo, _ := p.Bounds(v)
				p.SetBounds(v, lo, hi)
				continue
			}
			basis = sol.Basis()
			copy(x, sol.X)
		}
		if tb := &p.ws.tab; !tb.invBad && tb.factorize() {
			checkHypersparse(t, p, "refactorized", &n)
		}
	}
	if n.nontrivial < n.states/2 {
		t.Fatalf("only %d of %d states had nontrivial L, U and eta file", n.nontrivial, n.states)
	}
	t.Logf("%d states (%d with nontrivial L, U and etas): %d BTRAN, %d pivot rows, %d FTRAN compared",
		n.states, n.nontrivial, n.btran, n.rows, n.ftran)
}

// TestWorkspaceReuseAcrossRowCounts pins the pattern buffers' invariant
// across dimensions: one workspace, attached with SetWorkspace, runs a
// cold solve and a warm chain on a 150-row LP, then a 20-row LP, then
// the 150-row LP again, and every result must equal bit for bit the one
// a fresh workspace gives.
func TestWorkspaceReuseAcrossRowCounts(t *testing.T) {
	type outcome struct {
		st    Status
		iters int
		obj   float64
		x     []float64
	}
	run := func(m int, seed int64, ws *Workspace) []outcome {
		rng := rand.New(rand.NewSource(seed))
		p := sparseRandomLP(rng, m)
		if ws != nil {
			p.SetWorkspace(ws)
		}
		var out []outcome
		var basis *Basis
		for step := 0; step < 6; step++ {
			sol, err := p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("%d rows step %d: %v", m, step, err)
			}
			out = append(out, outcome{sol.Status, sol.Iters, sol.Obj, append([]float64(nil), sol.X...)})
			if sol.Status != Optimal {
				break
			}
			basis = sol.Basis()
			tightenDown(p, sol.X, rng)
		}
		return out
	}
	ws := NewWorkspace()
	for i, m := range []int{150, 20, 150} {
		seed := int64(100 + m)
		got, want := run(m, seed, ws), run(m, seed, nil)
		if len(got) != len(want) {
			t.Fatalf("solve %d (%d rows): %d steps, fresh workspace %d", i, m, len(got), len(want))
		}
		for s := range got {
			g, w := got[s], want[s]
			if g.st != w.st || g.iters != w.iters || g.obj != w.obj {
				t.Fatalf("solve %d (%d rows) step %d: %v in %d pivots obj %v, fresh workspace %v in %d obj %v",
					i, m, s, g.st, g.iters, g.obj, w.st, w.iters, w.obj)
			}
			for v := range g.x {
				if g.x[v] != w.x[v] {
					t.Fatalf("solve %d (%d rows) step %d: x[%d] = %v, fresh workspace %v", i, m, s, v, g.x[v], w.x[v])
				}
			}
		}
	}
}
