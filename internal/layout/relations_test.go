package layout

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"columbas/internal/cases"
	"columbas/internal/lp"
	"columbas/internal/milp"
	"columbas/internal/planar"
)

// longestChains returns L[u][v], the longest chain u → … → v through the
// given relations of one axis — gaps plus the extents of the rects in
// between, -Inf where v is unreachable — by Floyd–Warshall. On an
// acyclic relation set it is an independent oracle for impliedRelations;
// a finite L[u][u] reveals a cycle.
func longestChains(n int, rels []orderRelation, ext []float64) [][]float64 {
	l := make([][]float64, n)
	for u := range l {
		l[u] = make([]float64, n)
		for v := range l[u] {
			l[u][v] = math.Inf(-1)
		}
	}
	for _, r := range rels {
		l[r.lo][r.hi] = math.Max(l[r.lo][r.hi], r.gap)
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			if math.IsInf(l[u][k], -1) {
				continue
			}
			for v := 0; v < n; v++ {
				l[u][v] = math.Max(l[u][v], l[u][k]+ext[k]+l[k][v])
			}
		}
	}
	return l
}

// TestImpliedRelationsExact checks the guided order-row reduction on
// random relation sets of up to 12 rects, with zero and positive gaps,
// zero-extent rects and chains that tie their relation's gap exactly:
// every dropped relation is implied by the kept ones alone, every kept
// relation is implied by no chain of the others, and an axis with a
// cycle keeps everything.
func TestImpliedRelationsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gaps := []float64{0, 0, 0, 50, 100, 250}
	extents := []float64{0, 0, 50, 100, 150}
	iters := 600
	if testing.Short() {
		iters = 150
	}
	dropped, cyclicAxes := 0, 0
	for it := 0; it < iters; it++ {
		n := 2 + rng.Intn(11)
		var ext [2][]float64
		for a := range ext {
			ext[a] = make([]float64, n)
			for i := range ext[a] {
				ext[a][i] = extents[rng.Intn(len(extents))]
			}
		}
		// Each axis orients its relations along a random rect order, so
		// it is acyclic; every eighth set flips some relations against
		// that order, which usually closes a cycle.
		pos := [2][]int{rng.Perm(n), rng.Perm(n)}
		flip := it%8 == 0
		var rels []orderRelation
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) < 2 {
					continue
				}
				a := rng.Intn(2)
				lo, hi := i, j
				if pos[a][lo] > pos[a][hi] {
					lo, hi = hi, lo
				}
				if flip && rng.Intn(4) == 0 {
					lo, hi = hi, lo
				}
				rels = append(rels, orderRelation{y: a == 1, lo: lo, hi: hi, gap: gaps[rng.Intn(len(gaps))]})
			}
		}
		implied := impliedRelations(rels, ext)
		if len(implied) != len(rels) {
			t.Fatalf("set %d: %d verdicts for %d relations", it, len(implied), len(rels))
		}
		for a := 0; a < 2; a++ {
			var axis, kept []orderRelation
			var idx []int
			for k, r := range rels {
				if r.y != (a == 1) {
					continue
				}
				axis = append(axis, r)
				idx = append(idx, k)
				if !implied[k] {
					kept = append(kept, r)
				}
			}
			all := longestChains(n, axis, ext[a])
			cyclic := false
			for u := 0; u < n; u++ {
				cyclic = cyclic || !math.IsInf(all[u][u], -1)
			}
			if cyclic {
				cyclicAxes++
				if len(kept) != len(axis) {
					t.Fatalf("set %d axis %d: dropped %d relations of a cyclic axis", it, a, len(axis)-len(kept))
				}
				continue
			}
			fromKept := longestChains(n, kept, ext[a])
			for x, r := range axis {
				if implied[idx[x]] {
					dropped++
					if fromKept[r.lo][r.hi] < r.gap {
						t.Fatalf("set %d: dropped %+v, but the kept relations only give %v", it, r, fromKept[r.lo][r.hi])
					}
					continue
				}
				others := append(append([]orderRelation(nil), axis[:x]...), axis[x+1:]...)
				if l := longestChains(n, others, ext[a])[r.lo][r.hi]; l >= r.gap {
					t.Fatalf("set %d: kept %+v, which a chain of %v already implies", it, r, l)
				}
			}
		}
	}
	if dropped == 0 || cyclicAxes == 0 {
		t.Fatalf("weak sample: %d relations dropped, %d cyclic axes", dropped, cyclicAxes)
	}
}

// TestSeedRelationReductionKeepsOptimum solves the guided round's LP of
// four 1-MUX designs twice — with the reduced relation set the model
// carries and with every seed relation — and requires the same optimum.
func TestSeedRelationReductionKeepsOptimum(t *testing.T) {
	ids := []string{"kinase21", "chip64", "chip128", "chip256"}
	if testing.Short() {
		ids = ids[:2]
	}
	for _, id := range ids {
		b, active := guidedRound2(t, id)
		reduced, dropped := b.model, b.impliedRelations
		if reduced.NumInt() != 0 || dropped == 0 {
			t.Fatalf("%s: %d binaries, %d of %d relations dropped", id, reduced.NumInt(), dropped, len(active))
		}
		b.buildMILP(true, active)
		rels := b.seedRelations(active)
		for k, imp := range impliedRelations(rels, b.minExtents()) {
			if imp {
				b.addRelation(rels[k])
			}
		}
		full := b.model
		if full.NumRows() != reduced.NumRows()+dropped {
			t.Fatalf("%s: full model has %d rows, want %d + %d", id, full.NumRows(), reduced.NumRows(), dropped)
		}
		objR, objF := solveGuidedLP(t, id, reduced).Obj, solveGuidedLP(t, id, full).Obj
		if math.Abs(objR-objF) > 1e-6 {
			t.Errorf("%s: reduced optimum %.9g, full %.9g", id, objR, objF)
		}
		t.Logf("%s: %d of %d relations implied, %d vs %d rows, objective %.6f (diff %g)",
			id, dropped, len(active), reduced.NumRows(), full.NumRows(), objR, objR-objF)
	}
}

// solveGuidedLP solves a zero-binary layout model with one worker and
// requires an optimum.
func solveGuidedLP(tb testing.TB, id string, m *milp.Model) *milp.Result {
	tb.Helper()
	res, err := m.Solve(milp.Options{Workers: 1, NoCuts: true, TimeLimit: time.Minute})
	if err != nil {
		tb.Fatalf("%s: %v", id, err)
	}
	if res.Status != milp.Optimal {
		tb.Fatalf("%s: LP status %v", id, res.Status)
	}
	return res
}

// caseBuilder planarizes case id at the given MUX count and returns its
// layout builder, greedy seed placed, under the default options.
func caseBuilder(tb testing.TB, id string, muxes int) *builder {
	tb.Helper()
	c, err := cases.Get(id)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := c.WithMuxes(muxes).Netlist()
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := planar.Planarize(n)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := buildModel(pr, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	b.greedyPlace()
	b.snapshotSeed()
	return b
}

// guidedRound2 builds case id at one MUX up to its round-2 guided model:
// round 1 places every rect without relations, and the pairs it leaves
// overlapping are round 2's relation set. The returned builder's model
// is round 2's reduced model.
func guidedRound2(tb testing.TB, id string) (*builder, [][2]int) {
	tb.Helper()
	b := caseBuilder(tb, id, 1)
	b.buildMILP(true, nil)
	b.applySolution(solveGuidedLP(tb, id, b.model))
	active := b.overlappingPairs(nil)
	b.buildMILP(true, active)
	return b, active
}

// BenchmarkSolveOneShotChip256 times the one-shot Solve path on the LP
// that carries most of the scale workload's solver time: chip256's
// round-2 guided model (1 041 rows, no binaries) on one worker.
func BenchmarkSolveOneShotChip256(b *testing.B) {
	bl, _ := guidedRound2(b, "chip256")
	var res *milp.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = solveGuidedLP(b, "chip256", bl.model)
	}
	b.ReportMetric(float64(res.Stats.SimplexPivots), "pivots/op")
	b.ReportMetric(float64(res.Stats.Refactorizations), "refactors/op")
}

// BenchmarkSolveColdRootChip128 times the cold root that branch and
// bound solves at the start of every separation round, on the Table 1
// design where it is largest: chip128's round-1 model at two MUXes
// (592 rows, 36 binaries), relaxed to an LP as the model stands before
// the search's root presolve, and solved through SolveFrom(nil), the
// basis-less full-tableau path. Every iteration is a cold start on the
// problem's reused workspace, as a worker's root solve is.
func BenchmarkSolveColdRootChip128(b *testing.B) {
	bl := caseBuilder(b, "chip128", 2)
	bl.buildMILP(len(bl.rects) > DefaultOptions().GuidedThreshold, nil)
	m := bl.model
	p := lp.NewProblem()
	for v := 0; v < m.NumVars(); v++ {
		lo, hi := m.Bounds(milp.VarID(v))
		p.AddVar(lo, hi, m.ObjCoef(milp.VarID(v)))
	}
	for _, r := range m.Rows() {
		p.AddConstraint(r.Terms, r.Sense, r.RHS)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err := p.SolveFrom(nil); err != nil || sol.Status != lp.Optimal {
			b.Fatalf("root LP: status %v, err %v", sol.Status, err)
		}
	}
	b.ReportMetric(float64(p.PivotCount())/float64(b.N), "pivots/op")
	b.ReportMetric(float64(p.Phase1RowCount())/float64(b.N), "phase1_rows/op")
}
