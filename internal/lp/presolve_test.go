package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestPresolveEliminatesDoubletons(t *testing.T) {
	// x_r = x_l + 5 (the paper's constraint (1) shape): presolve must
	// collapse the pair and still find the right optimum.
	p := NewProblem()
	xl := p.AddVar(0, 100, 0)
	xr := p.AddVar(0, 100, 1) // minimise the right edge
	p.AddConstraint([]Term{{xr, 1}, {xl, -1}}, EQ, 5)
	p.AddConstraint([]Term{{xl, 1}}, GE, 3)
	s := solveOK(t, p)
	wantObj(t, s, 8)
	if math.Abs(s.X[xl]-3) > 1e-6 || math.Abs(s.X[xr]-8) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
	// The reduction really happened.
	ps := p.presolve()
	if ps == nil {
		t.Fatal("presolve found nothing to reduce")
	}
	if ps.prob.NumVars() != 1 {
		t.Fatalf("reduced vars = %d, want 1", ps.prob.NumVars())
	}
}

func TestPresolveChainOfEqualities(t *testing.T) {
	// a = b + 1 = c + 2 = d + 3: all collapse to one root.
	p := NewProblem()
	a := p.AddVar(0, 100, 1)
	b := p.AddVar(0, 100, 1)
	c := p.AddVar(0, 100, 1)
	d := p.AddVar(0, 100, 1)
	p.AddConstraint([]Term{{a, 1}, {b, -1}}, EQ, 1)
	p.AddConstraint([]Term{{b, 1}, {c, -1}}, EQ, 1)
	p.AddConstraint([]Term{{c, 1}, {d, -1}}, EQ, 1)
	p.AddConstraint([]Term{{d, 1}}, GE, 2)
	s := solveOK(t, p)
	// d=2, c=3, b=4, a=5: obj 14.
	wantObj(t, s, 14)
	ps := p.presolve()
	if ps == nil || ps.prob.NumVars() != 1 {
		t.Fatalf("chain should reduce to one variable")
	}
}

func TestPresolveFixedVariableFolds(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(4, 4, 1) // fixed by bounds
	y := p.AddVar(0, 10, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 7)
	s := solveOK(t, p)
	wantObj(t, s, 7) // y = 3
	if math.Abs(s.X[x]-4) > 1e-9 {
		t.Fatalf("fixed var = %v", s.X[x])
	}
}

func TestPresolveSingletonEqualityFixes(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, -1)
	y := p.AddVar(0, 10, -1)
	p.AddConstraint([]Term{{x, 2}}, EQ, 6) // x = 3
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 8)
	s := solveOK(t, p)
	wantObj(t, s, -8) // x=3, y=5
	if math.Abs(s.X[x]-3) > 1e-6 {
		t.Fatalf("x = %v", s.X[x])
	}
}

func TestPresolveDetectsContradiction(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 0)
	p.AddConstraint([]Term{{x, 1}}, EQ, 3)
	p.AddConstraint([]Term{{x, 1}}, EQ, 5)
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestPresolveDetectsBoundViolation(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 2, 0)
	y := p.AddVar(5, 10, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 0) // x = y but ranges disjoint
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestPresolveNegativeCoefficientAlias(t *testing.T) {
	// x + y = 10 aliases x = -y + 10 (K < 0 path).
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 0)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{y, 1}}, LE, 4)
	s := solveOK(t, p)
	// minimise x = 10 - y with y <= 4: y = 4, x = 6.
	wantObj(t, s, 6)
	if math.Abs(s.X[y]-4) > 1e-6 {
		t.Fatalf("y = %v", s.X[y])
	}
}

// Randomised equivalence: the same LP with and without reducible
// equality chains must agree. Build a base LP, then add redundant alias
// variables tied by equalities and check the optimum is unchanged.
func TestPresolveEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		nb := 2 + rng.Intn(4)
		base := NewProblem()
		costs := make([]float64, nb)
		for i := 0; i < nb; i++ {
			costs[i] = rng.Float64()*4 - 2
			base.AddVar(0, 10, costs[i])
		}
		type rowSpec struct {
			terms []Term
			rhs   float64
		}
		var rows []rowSpec
		for r := 0; r < 1+rng.Intn(3); r++ {
			var terms []Term
			for v := 0; v < nb; v++ {
				if rng.Float64() < 0.7 {
					terms = append(terms, Term{v, rng.Float64()*4 - 2})
				}
			}
			if len(terms) == 0 {
				continue
			}
			rhs := rng.Float64() * 8
			base.AddConstraint(terms, LE, rhs)
			rows = append(rows, rowSpec{terms, rhs})
		}
		sBase, err := base.Solve()
		if err != nil {
			t.Fatal(err)
		}

		// Aliased version: every base var gets a shadow z_i = 2·x_i - 1,
		// costs split between the pair, rows rewritten onto shadows.
		ali := NewProblem()
		var xs, zs []int
		for i := 0; i < nb; i++ {
			xs = append(xs, ali.AddVar(0, 10, costs[i]/2))
			zs = append(zs, ali.AddVar(-1, 19, costs[i]/4))
		}
		for i := 0; i < nb; i++ {
			// z = 2x - 1  ->  x appears as (z+1)/2.
			ali.AddConstraint([]Term{{zs[i], 1}, {xs[i], -2}}, EQ, -1)
		}
		for _, r := range rows {
			var terms []Term
			rhs := r.rhs
			for _, tm := range r.terms {
				// a·x = a/2·x + a/4·(z+1) with z = 2x-1.
				terms = append(terms, Term{xs[tm.Var], tm.Coef / 2})
				terms = append(terms, Term{zs[tm.Var], tm.Coef / 4})
				rhs -= tm.Coef / 4
			}
			ali.AddConstraint(terms, LE, rhs)
		}
		sAli, err := ali.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sBase.Status != sAli.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, sBase.Status, sAli.Status)
		}
		if sBase.Status != Optimal {
			continue
		}
		// Aliased objective: c/2·x + c/4·(2x-1) = c·x - c/4.
		shift := 0.0
		for i := 0; i < nb; i++ {
			shift += costs[i] / 4
		}
		if math.Abs((sAli.Obj+shift)-sBase.Obj) > 1e-5 {
			t.Fatalf("trial %d: base %v vs aliased %v (shift %v)", trial, sBase.Obj, sAli.Obj, shift)
		}
		// Shadow relation holds in the expanded solution.
		for i := 0; i < nb; i++ {
			if math.Abs(sAli.X[zs[i]]-(2*sAli.X[xs[i]]-1)) > 1e-5 {
				t.Fatalf("trial %d: alias broken: z=%v x=%v", trial, sAli.X[zs[i]], sAli.X[xs[i]])
			}
		}
	}
}

func TestPresolveNoReductionPassthrough(t *testing.T) {
	// Pure inequality problem: presolve must step aside.
	p := NewProblem()
	x := p.AddVar(0, 10, -1)
	p.AddConstraint([]Term{{x, 1}}, LE, 7)
	if ps := p.presolve(); ps != nil {
		t.Fatal("nothing to reduce, presolve should return nil")
	}
	s := solveOK(t, p)
	wantObj(t, s, -7)
}

func TestPresolveFoldsKernelCounters(t *testing.T) {
	// A presolve-reduced solve runs on an inner Problem; its kernel
	// tallies must fold back into the outer one. The large guided layout
	// models solve exactly this way — without the fold their
	// basis-nonzero peak read zero.
	build := func() *Problem {
		p := NewProblem()
		xl := p.AddVar(0, 100, 0)
		xr := p.AddVar(0, 100, 1)
		p.AddConstraint([]Term{{xr, 1}, {xl, -1}}, EQ, 5)
		p.AddConstraint([]Term{{xl, 1}}, GE, 3)
		return p
	}
	p := build()
	if ps := p.presolve(); ps == nil {
		t.Fatal("model should presolve")
	}
	solveOK(t, p)
	if p.BasisNonzeroPeak() == 0 {
		t.Fatal("basis-nonzero peak not folded from the reduced solve")
	}
	if p.RefactorizationCount() == 0 {
		// The reduced cold solve installs no basis and stays under the
		// refactorization interval, so refactorizations may be zero —
		// but the peak above proves foldTableau ran on the inner
		// problem and its tallies reached the outer counters.
		t.Log("reduced solve finished without refactorizing (expected for tiny models)")
	}
}
