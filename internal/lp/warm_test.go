package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random bounded LP the way branch-and-bound sees them:
// a mix of binaries-as-[0,1] boxes and wider continuous variables under a
// handful of LE/GE/EQ rows.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	nv := 2 + rng.Intn(6)
	for v := 0; v < nv; v++ {
		if rng.Intn(2) == 0 {
			p.AddVar(0, 1, rng.NormFloat64())
		} else {
			p.AddVar(0, 5+rng.Float64()*5, rng.NormFloat64())
		}
	}
	nr := 1 + rng.Intn(4)
	for r := 0; r < nr; r++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: v, Coef: float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{Var: rng.Intn(nv), Coef: 1}}
		}
		sense := Sense(rng.Intn(3))
		rhs := float64(rng.Intn(9) - 2)
		if sense == EQ {
			rhs = float64(rng.Intn(3)) // keep equalities satisfiable more often
		}
		p.AddConstraint(terms, sense, rhs)
	}
	return p
}

// tightenOne applies a branch-and-bound-style one-variable bound change.
func tightenOne(p *Problem, rng *rand.Rand) {
	v := rng.Intn(p.NumVars())
	lo, hi := p.Bounds(v)
	if rng.Intn(2) == 0 {
		p.SetBounds(v, lo, math.Max(lo, math.Floor((lo+hi)/2)))
	} else {
		p.SetBounds(v, math.Min(hi, math.Floor((lo+hi)/2)+1), hi)
	}
}

func sameOutcome(t *testing.T, seed int64, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("seed %d: warm status %v, cold status %v", seed, warm.Status, cold.Status)
	}
	if warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-5 {
		t.Fatalf("seed %d: warm obj %v, cold obj %v", seed, warm.Obj, cold.Obj)
	}
}

// TestSolveFromNilMatchesSolve pins the cold full-tableau path of
// SolveFrom against the presolving Solve on random LPs, and checks that
// an Optimal outcome always carries a reusable basis.
func TestSolveFromNilMatchesSolve(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		cold, err := p.Clone().Solve()
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		q := p.Clone()
		warm, err := q.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: SolveFrom(nil): %v", seed, err)
		}
		sameOutcome(t, seed, warm, cold)
		if warm.Status == Optimal && warm.Basis() == nil {
			t.Fatalf("seed %d: optimal SolveFrom solution has no basis", seed)
		}
		if q.WarmStartCount() != 0 || q.ColdSolveCount() != 1 || q.WarmStartFallbackCount() != 0 {
			t.Fatalf("seed %d: SolveFrom(nil) counters warm=%d cold=%d fb=%d",
				seed, q.WarmStartCount(), q.ColdSolveCount(), q.WarmStartFallbackCount())
		}
	}
}

// TestWarmAgreesWithCold is the kernel-level equivalence check: solve a
// parent, tighten one bound the way a branch-and-bound child does, and
// require the warm-started child solve to agree with a cold solve of the
// same child — repeatedly, down a chain of tightenings.
func TestWarmAgreesWithCold(t *testing.T) {
	warmUsed := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		p := randomLP(rng)
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: root solve: %v", seed, err)
		}
		basis := sol.Basis()
		for step := 0; step < 4 && basis != nil; step++ {
			tightenOne(p, rng)
			warm, err := p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: SolveFrom: %v", seed, step, err)
			}
			cold, err := p.Clone().Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: cold Solve: %v", seed, step, err)
			}
			sameOutcome(t, seed, warm, cold)
			basis = warm.Basis()
		}
		warmUsed += int(p.WarmStartCount())
		if p.SolveCount() != p.WarmStartCount()+p.ColdSolveCount() {
			t.Fatalf("seed %d: solves=%d warm=%d cold=%d", seed, p.SolveCount(), p.WarmStartCount(), p.ColdSolveCount())
		}
		if p.PivotCount() != p.WarmPivotCount()+p.ColdPivotCount() {
			t.Fatalf("seed %d: pivots=%d warm=%d cold=%d", seed, p.PivotCount(), p.WarmPivotCount(), p.ColdPivotCount())
		}
	}
	if warmUsed == 0 {
		t.Fatalf("warm path never used across the whole suite")
	}
}

// TestWarmStartSkipsPhase1 checks the point of the whole exercise: a warm
// start re-enters the simplex from the parent's basis and has no start
// rows to repair.
func TestWarmStartSkipsPhase1(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 4)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 2)
	sol, err := p.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: %v %v", sol, err)
	}
	// Both costs are positive, so the cold start is the origin, where
	// x + y ≥ 4 is violated and x − y ≤ 2 holds.
	if p.Phase1RowCount() != 1 {
		t.Fatalf("cold phase-1 rows = %d, want 1", p.Phase1RowCount())
	}
	p.SetBounds(x, 0, 1) // branch: x <= 1
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm: %v %v", warm, err)
	}
	if p.WarmStartCount() != 1 {
		t.Fatalf("warm start not used (fallbacks=%d)", p.WarmStartFallbackCount())
	}
	if p.Phase1RowCount() != 1 {
		t.Fatalf("warm start counted phase-1 rows: rows = %d", p.Phase1RowCount())
	}
	// min x+2y st x+y>=4, x<=1 --> x=1, y=3, obj=7
	wantObj(t, warm, 7)
}

// TestWarmStartInfeasibleChild checks that the dual repair proves
// infeasibility (the common prune outcome in branch and bound) instead of
// falling back.
func TestWarmStartInfeasibleChild(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 8)
	sol, err := p.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: %v %v", sol, err)
	}
	p.SetBounds(x, 0, 2)
	p.SetBounds(y, 0, 2) // x+y >= 8 now impossible
	warm, err := p.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("SolveFrom: %v", err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", warm.Status)
	}
	if p.WarmStartCount() != 1 || p.WarmStartFallbackCount() != 0 {
		t.Fatalf("warm=%d fallbacks=%d, want 1/0", p.WarmStartCount(), p.WarmStartFallbackCount())
	}
}

// TestWarmStartStaleBasisFallsBack feeds SolveFrom a basis from an
// unrelated problem shape and expects a counted cold fallback, not an
// error or a wrong answer.
func TestWarmStartStaleBasisFallsBack(t *testing.T) {
	other := NewProblem()
	other.AddVar(0, 1, 1)
	other.AddConstraint([]Term{{0, 1}}, LE, 1)
	osol, err := other.SolveFrom(nil)
	if err != nil || osol.Basis() == nil {
		t.Fatalf("other: %v %v", osol, err)
	}
	p := NewProblem()
	x := p.AddVar(0, 3, -1)
	y := p.AddVar(0, 2, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	sol, err := p.SolveFrom(osol.Basis())
	if err != nil {
		t.Fatalf("SolveFrom: %v", err)
	}
	wantObj(t, sol, -4)
	if p.WarmStartFallbackCount() != 1 || p.ColdSolveCount() != 1 || p.WarmStartCount() != 0 {
		t.Fatalf("counters warm=%d cold=%d fb=%d, want 0/1/1",
			p.WarmStartCount(), p.ColdSolveCount(), p.WarmStartFallbackCount())
	}
}

// TestBasisSharedAcrossClones mimics the worker handoff: a basis captured
// on one Problem clone warm-starts a solve on another.
func TestBasisSharedAcrossClones(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 4, -2)
	y := p.AddVar(0, 4, -3)
	p.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 8)
	p.AddConstraint([]Term{{x, 2}, {y, 1}}, LE, 8)
	a := p.Clone()
	sol, err := a.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: %v %v", sol, err)
	}
	b := p.Clone()
	b.SetBounds(int(x), 0, 1)
	warm, err := b.SolveFrom(sol.Basis())
	if err != nil {
		t.Fatalf("SolveFrom on clone: %v", err)
	}
	if b.WarmStartCount() != 1 {
		t.Fatalf("clone did not warm-start (fallbacks=%d)", b.WarmStartFallbackCount())
	}
	cold, err := b.Clone().Solve()
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	sameOutcome(t, 0, warm, cold)
}
