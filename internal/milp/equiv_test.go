package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Solver-equivalence harness: every fixture is solved three ways — the
// exact sequential algorithm (Workers=1), the worker pool (Workers=4) and
// brute-force enumeration of all integer assignments — and all three must
// agree on status and optimal objective within 1e-6. This is the proof
// obligation behind the parallel branch-and-bound core: parallelism may
// reorder the search and break variable-assignment ties differently, but
// it must never change what the solver proves.

const equivTol = 1e-6

// bruteForce enumerates every assignment of the model's integer variables
// (bounds product must stay small), LP-solves the continuous remainder of
// each, and returns the best status/objective. build must return a fresh
// equivalent model on every call.
func bruteForce(t *testing.T, build func() *Model) (Status, float64) {
	t.Helper()
	probe := build()
	type intVar struct {
		v      int
		lo, hi int
	}
	var ints []intVar
	combos := 1
	for v, isInt := range probe.isInt {
		if !isInt {
			continue
		}
		lo, hi := probe.prob.Bounds(v)
		iv := intVar{v: v, lo: int(math.Ceil(lo - equivTol)), hi: int(math.Floor(hi + equivTol))}
		if iv.hi < iv.lo {
			return Infeasible, 0
		}
		combos *= iv.hi - iv.lo + 1
		if combos > 1<<14 {
			t.Fatalf("fixture too large for brute force: %d combos", combos)
		}
		ints = append(ints, iv)
	}
	best := math.Inf(1)
	feasible := false
	assign := make([]int, len(ints))
	var rec func(k int)
	rec = func(k int) {
		if k == len(ints) {
			m := build()
			for i, iv := range ints {
				m.Fix(VarID(iv.v), float64(assign[i]))
			}
			r, err := m.Solve(Options{})
			if err != nil {
				t.Fatalf("brute force LP: %v", err)
			}
			if r.Status == Optimal {
				feasible = true
				if r.Obj < best {
					best = r.Obj
				}
			}
			return
		}
		for val := ints[k].lo; val <= ints[k].hi; val++ {
			assign[k] = val
			rec(k + 1)
		}
	}
	rec(0)
	if !feasible {
		return Infeasible, 0
	}
	return Optimal, best
}

// checkEquivalence solves build() with Workers=1 and Workers=4, each both
// warm-started (the default) and with NoWarmStart (the seed solver's cold
// behaviour), and cross-checks all four against brute force. This is the
// proof obligation behind the warm-start kernel: basis reuse may change
// pivot order and tie-breaking, but never status or optimal objective.
func checkEquivalence(t *testing.T, name string, build func() *Model) {
	t.Helper()
	bStatus, bObj := bruteForce(t, build)
	for _, workers := range []int{1, 4} {
		for _, noWarm := range []bool{false, true} {
			label := fmt.Sprintf("%s workers=%d warm=%v", name, workers, !noWarm)
			r, err := build().Solve(Options{Workers: workers, NoWarmStart: noWarm})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if r.Status != bStatus {
				t.Fatalf("%s: status %v, brute force %v", label, r.Status, bStatus)
			}
			if bStatus == Optimal && math.Abs(r.Obj-bObj) > equivTol {
				t.Fatalf("%s: obj %v, brute force %v (diff %g)",
					label, r.Obj, bObj, math.Abs(r.Obj-bObj))
			}
			if bStatus == Optimal {
				// The returned assignment must actually be feasible at the
				// claimed objective, whatever ties it broke.
				ok, obj := build().checkFeasible(r.X)
				if !ok {
					t.Fatalf("%s: returned infeasible assignment %v", label, r.X)
				}
				if math.Abs(obj-r.Obj) > 1e-5 {
					t.Fatalf("%s: assignment objective %v != reported %v", label, obj, r.Obj)
				}
			}
			if noWarm && (r.Stats.WarmStarts != 0 || r.Stats.WarmPivots != 0) {
				t.Fatalf("%s: ablation run reported warm work: %+v", label, r.Stats)
			}
			if r.Stats.LPSolves != r.Stats.WarmStarts+r.Stats.ColdSolves {
				t.Fatalf("%s: LPSolves %d != WarmStarts %d + ColdSolves %d",
					label, r.Stats.LPSolves, r.Stats.WarmStarts, r.Stats.ColdSolves)
			}
		}
	}
	// 2×2 cuts × presolve matrix: disabling either tree reduction (or
	// both) may only change how the tree is searched, never what it
	// proves — every cell must reproduce the brute-force status and
	// optimum. The both-enabled cell is the default already covered by
	// the warm/worker sweep above, so only the three ablated cells run.
	// This is the proof obligation behind the root-cut and presolve
	// layers: cuts and tightened bounds must never exclude an
	// integer-feasible point.
	for _, noCuts := range []bool{false, true} {
		for _, noPresolve := range []bool{false, true} {
			if !noCuts && !noPresolve {
				continue
			}
			label := fmt.Sprintf("%s cuts=%v presolve=%v", name, !noCuts, !noPresolve)
			r, err := build().Solve(Options{Workers: 1, NoCuts: noCuts, NoPresolve: noPresolve})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if r.Status != bStatus {
				t.Fatalf("%s: status %v, brute force %v", label, r.Status, bStatus)
			}
			if bStatus == Optimal && math.Abs(r.Obj-bObj) > equivTol {
				t.Fatalf("%s: obj %v, brute force %v (diff %g)",
					label, r.Obj, bObj, math.Abs(r.Obj-bObj))
			}
			if bStatus == Optimal {
				ok, obj := build().checkFeasible(r.X)
				if !ok {
					t.Fatalf("%s: returned infeasible assignment %v", label, r.X)
				}
				if math.Abs(obj-r.Obj) > 1e-5 {
					t.Fatalf("%s: assignment objective %v != reported %v", label, obj, r.Obj)
				}
			}
			if noCuts && (r.Stats.CutsAdded != 0 || r.Stats.CutRounds != 0) {
				t.Fatalf("%s: NoCuts run reported cut work: %+v", label, r.Stats)
			}
			if noPresolve && (r.Stats.NodesPresolved != 0 || r.Stats.BoundsTightened != 0 ||
				r.Stats.RowsRemoved != 0 || r.Stats.CoefsStrengthened != 0) {
				t.Fatalf("%s: NoPresolve run reported presolve work: %+v", label, r.Stats)
			}
		}
	}
}

// TestEquivalenceFixtures runs the named fixtures of the package's test
// suite (the deterministic models of milp_test.go/brute_test.go) through
// the sequential/parallel/brute-force cross-check.
func TestEquivalenceFixtures(t *testing.T) {
	fixtures := []struct {
		name  string
		build func() *Model
	}{
		{"knapsack", func() *Model {
			m := NewModel()
			a, b, c := m.Binary("a"), m.Binary("b"), m.Binary("c")
			m.AddLE(Sum(a, b, c), 2)
			m.Minimize(NewExpr().Add(a, -10).Add(b, -6).Add(c, -4))
			return m
		}},
		{"fractional-knapsack", func() *Model {
			m := NewModel()
			x1, x2, x3 := m.Binary("x1"), m.Binary("x2"), m.Binary("x3")
			m.AddLE(NewExpr().Add(x1, 6).Add(x2, 5).Add(x3, 4), 10)
			m.Minimize(NewExpr().Add(x1, -9).Add(x2, -7).Add(x3, -5))
			return m
		}},
		{"integer-var", func() *Model {
			m := NewModel()
			x := m.Int("x", 0, 10)
			m.AddLE(T(x, 3), 10)
			m.Minimize(T(x, -1))
			return m
		}},
		{"objective-constant", func() *Model {
			m := NewModel()
			x := m.Int("x", 0, 5)
			m.AddGE(T(x, 1), 2)
			m.Minimize(NewExpr().Add(x, 1).AddConst(100))
			return m
		}},
		{"infeasible-parity", func() *Model {
			m := NewModel()
			x := m.Int("x", 0, 10)
			m.AddEQ(T(x, 2), 3)
			return m
		}},
		{"two-way-disjunction", func() *Model {
			const M = 1000
			m := NewModel()
			xa := m.Var("xa", 0, 15)
			xb := m.Var("xb", 0, 15)
			q1, q2 := m.Binary("q1"), m.Binary("q2")
			m.AddLE(NewExpr().Add(xa, 1).Add(xb, -1).Add(q1, -M), -10)
			m.AddLE(NewExpr().Add(xb, 1).Add(xa, -1).Add(q2, -M), -10)
			m.MarkDisjunction([]VarID{q1, q2})
			m.Minimize(Sum(xa, xb))
			return m
		}},
		{"four-way-disjunction", func() *Model {
			const M = 1000
			m := NewModel()
			ax := m.Var("ax", 0, 10)
			bx := m.Var("bx", 0, 10)
			ay := m.Var("ay", 0, 1)
			by := m.Var("by", 0, 1)
			q1, q2 := m.Binary("q1"), m.Binary("q2")
			q3, q4 := m.Binary("q3"), m.Binary("q4")
			m.AddLE(NewExpr().Add(ax, 1).Add(bx, -1).Add(q1, -M), -10)
			m.AddLE(NewExpr().Add(bx, 1).Add(ax, -1).Add(q2, -M), -10)
			m.AddLE(NewExpr().Add(ay, 1).Add(by, -1).Add(q3, -M), -10)
			m.AddLE(NewExpr().Add(by, 1).Add(ay, -1).Add(q4, -M), -10)
			m.MarkDisjunction([]VarID{q1, q2, q3, q4})
			m.Minimize(Sum(ax, bx, ay, by))
			return m
		}},
		{"strip-packing", func() *Model {
			const M = 100
			widths := []float64{4, 5, 6}
			m := NewModel()
			var xs []VarID
			W := m.Var("W", 0, 100)
			for _, w := range widths {
				x := m.Var("x", 0, 100)
				xs = append(xs, x)
				m.AddLE(NewExpr().Add(x, 1).AddConst(w).Add(W, -1), 0)
			}
			for i := range widths {
				for j := i + 1; j < len(widths); j++ {
					q1, q2 := m.Binary("q1"), m.Binary("q2")
					m.AddLE(NewExpr().Add(xs[i], 1).AddConst(widths[i]).Add(xs[j], -1).Add(q1, -M), 0)
					m.AddLE(NewExpr().Add(xs[j], 1).AddConst(widths[j]).Add(xs[i], -1).Add(q2, -M), 0)
					m.MarkDisjunction([]VarID{q1, q2})
				}
			}
			m.Minimize(T(W, 1))
			return m
		}},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) { checkEquivalence(t, fx.name, fx.build) })
	}
}

// randomModel returns a builder for a seeded random MILP in the shape of
// the brute_test generators: binaries plus bounded continuous variables,
// LE/GE rows, and occasionally a marked two-binary disjunction.
func randomModel(seed int64) func() *Model {
	return func() *Model {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(5)
		nc := rng.Intn(3)
		nr := 1 + rng.Intn(4)
		m := NewModel()
		var bs, cs []VarID
		for i := 0; i < nb; i++ {
			bs = append(bs, m.Binary(fmt.Sprintf("b%d", i)))
		}
		for i := 0; i < nc; i++ {
			cs = append(cs, m.Var(fmt.Sprintf("x%d", i), 0, 5))
		}
		for r := 0; r < nr; r++ {
			e := NewExpr()
			for _, b := range bs {
				e.Add(b, float64(rng.Intn(7)-3))
			}
			for _, c := range cs {
				e.Add(c, float64(rng.Intn(5)-2))
			}
			rhs := float64(rng.Intn(9) - 2)
			if rng.Intn(2) == 0 {
				m.AddGE(e, rhs)
			} else {
				m.AddLE(e, rhs)
			}
		}
		if nb >= 2 && rng.Intn(3) == 0 {
			m.MarkDisjunction([]VarID{bs[0], bs[1]})
		}
		obj := NewExpr()
		for _, b := range bs {
			obj.Add(b, float64(rng.Intn(11)-5))
		}
		for _, c := range cs {
			obj.Add(c, float64(rng.Intn(5)-2)/2+0.5)
		}
		m.Minimize(obj)
		return m
	}
}

// TestEquivalenceRandom cross-checks 100 seeded random MILPs (each solved
// warm and cold at two worker counts against brute force).
func TestEquivalenceRandom(t *testing.T) {
	n := int64(100)
	if testing.Short() {
		n = 25
	}
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkEquivalence(t, fmt.Sprintf("seed%d", seed), randomModel(seed))
		})
	}
}

// TestEquivalenceWorkerSweep fixes one nontrivial model and sweeps the
// worker count further than the pairwise check.
func TestEquivalenceWorkerSweep(t *testing.T) {
	build := randomModel(17)
	ref, err := build().Solve(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8, -1} {
		r, err := build().Solve(Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.Status != ref.Status {
			t.Fatalf("workers=%d: status %v, want %v", workers, r.Status, ref.Status)
		}
		if ref.Status == Optimal && math.Abs(r.Obj-ref.Obj) > equivTol {
			t.Fatalf("workers=%d: obj %v, want %v", workers, r.Obj, ref.Obj)
		}
	}
}
