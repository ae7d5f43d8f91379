package lp

import (
	"math"
	"math/rand"
	"testing"
)

// kernelBenchProblem builds a deterministic mid-size LP (the shape of one
// branch-and-bound relaxation) and solves it once on the full tableau so the warm path has a basis to start from.
// Seeds are probed in order until one yields an Optimal, basis-carrying
// solve, so the fixture stays stable if the generator's arithmetic
// shifts.
func kernelBenchProblem(tb testing.TB) (*Problem, *Basis) {
	tb.Helper()
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		const nv, nr = 40, 25
		for v := 0; v < nv; v++ {
			p.AddVar(0, 10+rng.Float64()*10, rng.NormFloat64())
		}
		for r := 0; r < nr; r++ {
			var terms []Term
			for v := 0; v < nv; v++ {
				if rng.Intn(3) == 0 {
					terms = append(terms, Term{Var: v, Coef: float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{Var: rng.Intn(nv), Coef: 1}}
			}
			p.AddConstraint(terms, LE, float64(5+rng.Intn(20)))
		}
		sol, err := p.SolveFrom(nil)
		if err == nil && sol.Status == Optimal && sol.Basis() != nil {
			return p, sol.Basis()
		}
	}
	tb.Fatal("no seed produced an optimal basis-carrying fixture")
	return nil, nil
}

// BenchmarkSolveFromSteadyState measures the branch-and-bound steady
// state: re-solving an unchanged problem from its own optimal basis. The
// workspace's factorization cache turns the whole solve into a pair of
// feasibility scans — no factorization, no pivots, and (pinned by
// TestSolveFromSteadyStateAllocs and make bench-kernel) no allocations.
func BenchmarkSolveFromSteadyState(b *testing.B) {
	p, basis := kernelBenchProblem(b)
	var spare *Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.SolveFromReuse(basis, spare)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("iter %d: status %v err %v", i, sol.Status, err)
		}
		basis = sol.Basis()
		spare = sol
	}
}

// BenchmarkSolveFromBranchToggle measures the other half of the hot loop:
// a child-style bound change followed by a warm re-solve, alternating a
// tightened and a restored bound so every iteration performs real dual
// repair work (pivots landing on the LU factors as eta columns) on
// recycled memory.
func BenchmarkSolveFromBranchToggle(b *testing.B) {
	p, basis := kernelBenchProblem(b)
	// Toggle the bound of the variable largest in the optimum — the one
	// most likely to be basic, so tightening it forces pivots.
	sol, err := p.SolveFromReuse(basis, nil)
	if err != nil || sol.Status != Optimal {
		b.Fatalf("fixture re-solve: status %v err %v", sol.Status, err)
	}
	v, best := 0, -1.0
	for i, x := range sol.X {
		if x > best {
			v, best = i, x
		}
	}
	lo, hi := p.Bounds(v)
	tight := math.Floor((lo + hi) / 2)
	basis = sol.Basis()
	spare := sol
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			p.SetBounds(v, lo, tight)
		} else {
			p.SetBounds(v, lo, hi)
		}
		sol, err := p.SolveFromReuse(basis, spare)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("iter %d: status %v err %v", i, sol.Status, err)
		}
		if nb := sol.Basis(); nb != nil {
			basis = nb
		}
		spare = sol
	}
}

// TestSolveFromSteadyStateAllocs pins the zero-allocation steady state of
// the warm-start path: once the workspace is warmed up, re-solving from
// the previous basis with Solution recycling must not allocate at all.
// This is the alloc regression gate make bench-kernel enforces.
func TestSolveFromSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the property is gated in non-race runs")
	}
	p, basis := kernelBenchProblem(t)
	var spare *Solution
	for i := 0; i < 3; i++ { // warm up buffers, cache, and recycled Solution
		sol, err := p.SolveFromReuse(basis, spare)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("warm-up %d: status %v err %v", i, sol.Status, err)
		}
		basis = sol.Basis()
		spare = sol
	}
	allocs := testing.AllocsPerRun(100, func() {
		sol, err := p.SolveFromReuse(basis, spare)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("status %v err %v", sol.Status, err)
		}
		basis = sol.Basis()
		spare = sol
	})
	if allocs != 0 {
		t.Fatalf("steady-state warm solve: %v allocs/op, want 0", allocs)
	}
	if p.WorkspaceReuseCount() == 0 {
		t.Fatal("steady state never hit the workspace factorization cache")
	}
}

// TestColdSolveAllocs pins the allocation budget of a cold solve: once
// the workspace is warmed up, a cold SolveFromReuse(nil, recycle) — the
// dual repair's reduced-cost and pivot-row buffers included — allocates
// only the Basis snapshot it returns (the header and its two slices).
// make bench-kernel runs it next to TestSolveFromSteadyStateAllocs.
func TestColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the property is gated in non-race runs")
	}
	p, _ := kernelBenchProblem(t)
	var spare *Solution
	solve := func() {
		sol, err := p.SolveFromReuse(nil, spare)
		if err != nil || sol.Status != Optimal || sol.Iters == 0 {
			t.Fatalf("status %v err %v after %d pivots", sol.Status, err, sol.Iters)
		}
		spare = sol
	}
	for i := 0; i < 3; i++ { // warm up the workspace and the recycled Solution
		solve()
	}
	if allocs := testing.AllocsPerRun(100, solve); allocs != 3 {
		t.Fatalf("cold solve: %v allocs/op, want 3 (the Basis snapshot)", allocs)
	}
}
