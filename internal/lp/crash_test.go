package lp

import (
	"math"
	"math/rand"
	"testing"
)

// startBound is where a cold start rests one structural column: its
// state, its value, and the repair cost the dual simplex prices it with.
type startBound struct {
	state  int8
	x      float64
	repair float64
}

// checkStart builds the cold-start tableau of p and checks it: every row
// starts on its own slack, holding the start residual, and each
// structural rests where want says. The rows whose slack lies outside
// its bounds are the phase-1 rows; want lists them.
func checkStart(t *testing.T, p *Problem, want []startBound, violated []bool) *tableau {
	t.Helper()
	tb := p.newTableau()
	for v, w := range want {
		if tb.state[v] != w.state || tb.x[v] != w.x || tb.ws.repair[v] != w.repair {
			t.Fatalf("column %d starts in state %d at %v with repair cost %v, want state %d at %v with %v",
				v, tb.state[v], tb.x[v], tb.ws.repair[v], w.state, w.x, w.repair)
		}
	}
	p1 := 0
	for i, row := range p.rows {
		s := tb.nStru + i
		if tb.basis[i] != s || tb.state[s] != basic {
			t.Fatalf("row %d starts on column %d, want its slack %d", i, tb.basis[i], s)
		}
		lhs := 0.0
		for _, tm := range row.terms {
			lhs += tm.Coef * tb.x[tm.Var]
		}
		if got := tb.x[s]; math.Abs(got-(row.rhs-lhs)) > 1e-12 {
			t.Fatalf("row %d: slack starts at %v, want the residual %v", i, got, row.rhs-lhs)
		}
		if violated[i] {
			p1++
		}
	}
	if tb.p1rows != p1 {
		t.Fatalf("start counts %d phase-1 rows, want %d", tb.p1rows, p1)
	}
	return tb
}

// TestCrashStartSatisfiedRows: every column rests on the bound its cost
// sign asks for, and both rows hold there, so the start is optimal — the
// cold solve takes no pivot and reports no phase-1 row.
func TestCrashStartSatisfiedRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 4, -1)
	y := p.AddVar(0, 4, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 9)   // 8 ≤ 9
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, -3) // 0 ≥ −3
	checkStart(t, p, []startBound{{atUp, 4, -1}, {atUp, 4, -1}}, []bool{false, false})
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantObj(t, sol, -8)
	if sol.Iters != 0 || p.Phase1RowCount() != 0 {
		t.Fatalf("cold solve from an optimal start: %d pivots, %d phase-1 rows, want 0 and 0",
			sol.Iters, p.Phase1RowCount())
	}
}

// TestCrashStartEqualityRows: positive-cost columns start on their lower
// bound, negative-cost ones on their upper, a zero-cost one on its lower;
// every row — EQ rows included — starts on its slack, and the rows whose
// slack misses its bounds are the phase-1 rows the dual repairs.
func TestCrashStartEqualityRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1, 3, 2)
	y := p.AddVar(0, 2, -1)
	z := p.AddVar(0, 5, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, -1) // 1 − 2 = −1: holds
	p.AddConstraint([]Term{{x, 1}, {z, 1}}, EQ, 4)   // residual +3
	p.AddConstraint([]Term{{y, 1}, {z, -1}}, LE, 1)  // residual −1
	p.AddConstraint([]Term{{x, 1}, {z, -1}}, GE, -4) // residual −5: holds
	checkStart(t, p,
		[]startBound{{atLo, 1, 2}, {atUp, 2, -1}, {atLo, 0, 0}},
		[]bool{false, true, true, false})
	var o vertexOracle
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	o.check(t, p, sol, 0, -1)
	wantObj(t, sol, 0) // x = y − 1 with x ≥ 1, y ≤ 2 leaves x = 1, y = 2, z = 3
	if got := p.Phase1RowCount(); got != 2 {
		t.Fatalf("Phase1RowCount = %d, want 2", got)
	}
	oneShot, err := p.Clone().Solve()
	if err != nil {
		t.Fatal(err)
	}
	o.check(t, p, oneShot, 0, -1)
}

// TestCrashStartFreeStructural: a free column with a nonzero cost rests
// at 0 with repair cost 0, the dual repair fixes the violated row, and
// the primal phase 2 then reaches the optimum of the true costs.
func TestCrashStartFreeStructural(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-Inf, Inf, 1)
	y := p.AddVar(0, 3, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, -2) // 0 ≥ −2: holds
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1)   // residual +1
	tb := checkStart(t, p, []startBound{{atLo, 0, 0}, {atLo, 0, 0}}, []bool{false, true})
	if st := tb.dualSimplex(tb.ws.repair); st != Optimal {
		t.Fatalf("dual repair: %v, want optimal", st)
	}
	if st := tb.phase2(); st != Optimal {
		t.Fatalf("phase 2: %v, want optimal", st)
	}
	// x ≥ max(y − 2, 1 − y) is least at y = 1.5.
	if got := tb.x[x]; math.Abs(got+0.5) > 1e-9 {
		t.Fatalf("phase 2 ends at x = %v, want −0.5", got)
	}
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantObj(t, sol, -0.5)
	wantObj(t, solveOK(t, p.Clone()), -0.5)
}

// TestCrashStartNegativeCostUnboundedAbove: a negative-cost column whose
// upper bound is infinite rests on its lower bound with repair cost 0;
// phase 2 moves it up to the optimum.
func TestCrashStartNegativeCostUnboundedAbove(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	y := p.AddVar(0, 2, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5) // holds at the start
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, 1)
	tb := checkStart(t, p, []startBound{{atLo, 0, 0}, {atLo, 0, 1}}, []bool{false, true})
	if st := tb.dualSimplex(tb.ws.repair); st != Optimal {
		t.Fatalf("dual repair: %v, want optimal", st)
	}
	if st := tb.phase2(); st != Optimal {
		t.Fatalf("phase 2: %v, want optimal", st)
	}
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantObj(t, sol, -5) // x = 5, y = 0
	wantObj(t, solveOK(t, p.Clone()), -5)
}

// TestCrashStartInfeasible: a row that holds at the start keeps its
// slack even when another, violated row makes the LP infeasible; the dual
// ratio test finds no column to repair that row and proves it.
func TestCrashStartInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 2, 1)
	y := p.AddVar(0, 2, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 3) // holds
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5) // residual +5, unreachable
	tb := checkStart(t, p, []startBound{{atLo, 0, 1}, {atLo, 0, 1}}, []bool{false, true})
	if st := tb.dualSimplex(tb.ws.repair); st != Infeasible {
		t.Fatalf("dual repair: %v, want infeasible", st)
	}
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("SolveFrom(nil) status %v, want infeasible", sol.Status)
	}
	var o vertexOracle
	o.check(t, p, sol, 0, -1)
}

// TestCrashStartUnbounded: the dual repair makes the start feasible, and
// the primal phase 2 finds the ray.
func TestCrashStartUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	y := p.AddVar(0, 1, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, 1) // residual +1
	tb := checkStart(t, p, []startBound{{atLo, 0, 0}, {atLo, 0, 0}}, []bool{true})
	if st := tb.dualSimplex(tb.ws.repair); st != Optimal {
		t.Fatalf("dual repair: %v, want optimal", st)
	}
	if st := tb.phase2(); st != Unbounded {
		t.Fatalf("phase 2: %v, want unbounded", st)
	}
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("SolveFrom(nil) status %v, want unbounded", sol.Status)
	}
}

// checkKeptReducedCosts compares the reduced costs the dual simplex kept
// on tb against a fresh BTRAN of costs c over tb's current factors, for
// every column that can enter.
func checkKeptReducedCosts(t *testing.T, tb *tableau, c []float64, label string) {
	t.Helper()
	m := tb.m
	cb, y := make([]float64, m), make([]float64, m)
	for i := range cb {
		cb[i] = c[tb.basis[i]]
	}
	tb.f.btran(cb, y)
	for v := 0; v < tb.n; v++ {
		if tb.state[v] == basic || tb.hi[v]-tb.lo[v] < tol && !math.IsInf(tb.hi[v], 1) {
			continue
		}
		fresh := c[v]
		for _, tm := range tb.cols[v] {
			fresh -= y[tm.Var] * tm.Coef
		}
		if math.Abs(fresh-tb.ws.d[v]) > 1e-6 {
			t.Fatalf("%s: kept d[%d] = %v, fresh BTRAN gives %v", label, v, tb.ws.d[v], fresh)
		}
	}
}

// TestDualKeptReducedCostsMatchBTRAN is the drift property of the dual
// simplex: stopped after k pivots — on cold starts and on warm repairs
// down branch-and-bound chains — the reduced costs it updated pivot by
// pivot must equal a fresh BTRAN within 1e-6. Only runs whose dual
// neither refactorized nor reached the refresh cadence count as kept, so
// the check is not satisfied by a recomputation.
func TestDualKeptReducedCostsMatchBTRAN(t *testing.T) {
	var keptCold, keptWarm int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		for k := 1; k <= 6; k++ {
			tb := p.newTableau()
			tb.maxIter = k
			if tb.dualSimplex(tb.ws.repair) != IterLimit || tb.iters != k {
				break // repaired in fewer pivots
			}
			checkKeptReducedCosts(t, tb, tb.ws.repair, "cold")
			if tb.refac == 0 {
				keptCold++
			}
		}
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		basis := sol.Basis()
		for step := 0; step < 8 && basis != nil; step++ {
			tightenOne(p, rng)
			for k := 1; k <= 4; k++ {
				tb := p.newWarmTableau(basis)
				if tb == nil {
					break
				}
				tb.maxIter = k
				installed := tb.refac // the install may factorize
				if tb.dualSimplex(tb.cost) != IterLimit || tb.iters != k {
					break
				}
				checkKeptReducedCosts(t, tb, tb.cost, "warm")
				if tb.refac == installed {
					keptWarm++
				}
			}
			sol, err = p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if nb := sol.Basis(); nb != nil {
				basis = nb
			}
		}
	}
	if keptCold < 50 || keptWarm < 50 {
		t.Fatalf("%d cold and %d warm checks saw reduced costs kept across pivots, want ≥ 50 each",
			keptCold, keptWarm)
	}
	t.Logf("kept reduced costs checked %d times on cold starts, %d on warm repairs", keptCold, keptWarm)
}
