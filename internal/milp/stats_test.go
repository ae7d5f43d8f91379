package milp

import (
	"fmt"
	"testing"
	"time"

	"columbas/internal/lp"
)

// checkStatsConsistent asserts the internal identities every SearchStats
// must satisfy regardless of worker count or scheduling:
//
//   - LP-solve conservation: LPSolves = NodesExplored + RoundingAttempts +
//     CutRounds (each expanded node costs exactly one relaxation solve;
//     the only other solves are rounding-heuristic re-solves and the root
//     cut loop's separation rounds) — see docs/metrics.md;
//   - branching split: GroupBranches ≤ Branchings (every branch decision
//     is a k-way group branch or a most-fractional variable branch);
//   - per-worker totals sum to the pool totals;
//   - the in-flight high-water mark never exceeds the pool size;
//   - pruning counters never exceed the work that could produce them.
func checkStatsConsistent(t *testing.T, st SearchStats, workers int) {
	t.Helper()
	if st.Workers != workers {
		t.Errorf("Workers = %d, want %d", st.Workers, workers)
	}
	if got, want := st.LPSolves, st.NodesExplored+st.RoundingAttempts+st.CutRounds; got != want {
		t.Errorf("LP-solve conservation violated: LPSolves=%d, NodesExplored+RoundingAttempts+CutRounds=%d", got, want)
	}
	if st.GroupBranches > st.Branchings {
		t.Errorf("branching split violated: GroupBranches %d > Branchings %d", st.GroupBranches, st.Branchings)
	}
	if got, want := st.LPSolves, st.WarmStarts+st.ColdSolves; got != want {
		t.Errorf("warm-start conservation violated: LPSolves=%d, WarmStarts+ColdSolves=%d", got, want)
	}
	if got, want := st.SimplexPivots, st.WarmPivots+st.ColdPivots; got != want {
		t.Errorf("pivot split violated: SimplexPivots=%d, WarmPivots+ColdPivots=%d", got, want)
	}
	if st.WarmStartFallbacks > st.ColdSolves {
		t.Errorf("WarmStartFallbacks %d > ColdSolves %d", st.WarmStartFallbacks, st.ColdSolves)
	}
	if st.EtaUpdates > st.SimplexPivots {
		t.Errorf("EtaUpdates %d > SimplexPivots %d", st.EtaUpdates, st.SimplexPivots)
	}
	if st.WorkspaceReuses > st.WarmStarts {
		t.Errorf("WorkspaceReuses %d > WarmStarts %d", st.WorkspaceReuses, st.WarmStarts)
	}
	if st.SparseRefactorizations != st.Refactorizations {
		t.Errorf("deprecated SparseRefactorizations %d != Refactorizations %d", st.SparseRefactorizations, st.Refactorizations)
	}
	if st.FillIn > 0 && st.Refactorizations == 0 {
		t.Errorf("FillIn %d with no refactorizations", st.FillIn)
	}
	var nodes, solves, pivots, warm, warmPiv, fallbacks, p1, eta, refac, reuse, fill, nnzMax int64
	for _, w := range st.PerWorker {
		nodes += w.Nodes
		solves += w.LPSolves
		pivots += w.Pivots
		warm += w.WarmStarts
		warmPiv += w.WarmPivots
		fallbacks += w.WarmFallbacks
		p1 += w.Phase1Rows
		eta += w.EtaUpdates
		refac += w.Refactorizations
		reuse += w.WorkspaceReuses
		fill += w.FillIn
		if w.BasisNonzeros > nnzMax {
			nnzMax = w.BasisNonzeros
		}
	}
	if fill != st.FillIn {
		t.Errorf("per-worker fill-in sum %d != FillIn %d", fill, st.FillIn)
	}
	if nnzMax != st.BasisNonzeros {
		t.Errorf("per-worker basis-nonzero max %d != BasisNonzeros %d", nnzMax, st.BasisNonzeros)
	}
	if eta != st.EtaUpdates {
		t.Errorf("per-worker eta updates sum %d != EtaUpdates %d", eta, st.EtaUpdates)
	}
	if refac != st.Refactorizations {
		t.Errorf("per-worker refactorizations sum %d != Refactorizations %d", refac, st.Refactorizations)
	}
	if reuse != st.WorkspaceReuses {
		t.Errorf("per-worker workspace reuses sum %d != WorkspaceReuses %d", reuse, st.WorkspaceReuses)
	}
	if warm != st.WarmStarts {
		t.Errorf("per-worker warm starts sum %d != WarmStarts %d", warm, st.WarmStarts)
	}
	if warmPiv != st.WarmPivots {
		t.Errorf("per-worker warm pivots sum %d != WarmPivots %d", warmPiv, st.WarmPivots)
	}
	if fallbacks != st.WarmStartFallbacks {
		t.Errorf("per-worker fallbacks sum %d != WarmStartFallbacks %d", fallbacks, st.WarmStartFallbacks)
	}
	if p1 != st.Phase1Rows {
		t.Errorf("per-worker phase-1 rows sum %d != Phase1Rows %d", p1, st.Phase1Rows)
	}
	if nodes != st.NodesExplored {
		t.Errorf("per-worker nodes sum %d != NodesExplored %d", nodes, st.NodesExplored)
	}
	if solves != st.LPSolves {
		t.Errorf("per-worker LP solves sum %d != LPSolves %d", solves, st.LPSolves)
	}
	if pivots != st.SimplexPivots {
		t.Errorf("per-worker pivots sum %d != SimplexPivots %d", pivots, st.SimplexPivots)
	}
	if st.InFlightHighWater > workers {
		t.Errorf("InFlightHighWater %d > workers %d", st.InFlightHighWater, workers)
	}
	if st.NodesExplored > 0 && st.InFlightHighWater < 1 {
		t.Errorf("InFlightHighWater = %d with %d nodes explored", st.InFlightHighWater, st.NodesExplored)
	}
	if st.RoundingHits > st.RoundingAttempts {
		t.Errorf("RoundingHits %d > RoundingAttempts %d", st.RoundingHits, st.RoundingAttempts)
	}
	if st.NodesCutoff+st.NodesPruned > st.NodesExplored+st.NodesPruned {
		t.Errorf("cutoff %d exceeds explored %d", st.NodesCutoff, st.NodesExplored)
	}
	if st.SimplexPivots < st.LPSolves && st.SimplexPivots != 0 {
		// Each non-trivial LP costs at least one pivot; fully presolved
		// LPs cost zero, so only flag the impossible middle ground where
		// pivots exist but fewer than one per solve on a pivot-heavy run.
		t.Logf("note: SimplexPivots %d < LPSolves %d (heavily presolved model)", st.SimplexPivots, st.LPSolves)
	}
}

// TestSearchStatsConservation solves one fixture sequentially and with a
// pool of four and asserts that the totals of both runs satisfy the
// conservation identities and agree on the objective. Node counts may
// differ between the two runs (incumbent timing changes pruning); the
// identities must not. Run under -race this also proves the counter
// collection itself is race-free.
func TestSearchStatsConservation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := hardKnapsack(14).Solve(Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Status != Optimal {
			t.Fatalf("workers=%d: status %v", workers, res.Status)
		}
		checkStatsConsistent(t, res.Stats, workers)
		if res.Stats.NodesExplored != int64(res.Nodes) {
			t.Errorf("workers=%d: Stats.NodesExplored %d != Result.Nodes %d",
				workers, res.Stats.NodesExplored, res.Nodes)
		}
		if len(res.Stats.PerWorker) != workers {
			t.Errorf("workers=%d: PerWorker length %d", workers, len(res.Stats.PerWorker))
		}
	}

	// Objective equality between the two configurations is covered by the
	// equivalence suite; re-assert it here so this test stands alone.
	r1, _ := hardKnapsack(14).Solve(Options{Workers: 1})
	r4, _ := hardKnapsack(14).Solve(Options{Workers: 4})
	if d := r1.Obj - r4.Obj; d > 1e-6 || d < -1e-6 {
		t.Errorf("objective differs: sequential %v vs pool %v", r1.Obj, r4.Obj)
	}
}

// TestWarmStartEngaged proves basis reuse actually happens on a real
// search: beyond the root, (nearly) every node solve should re-enter from
// its parent's basis, and the NoWarmStart ablation must report none.
func TestWarmStartEngaged(t *testing.T) {
	res, err := hardKnapsack(14).Solve(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WarmStarts == 0 {
		t.Fatalf("no warm starts on a %d-node search: %+v", res.Stats.NodesExplored, res.Stats)
	}
	// Every solve that had a parent basis should have used it; allow a
	// small fallback margin but not a silently-cold search.
	if res.Stats.WarmStarts*2 < res.Stats.NodesExplored {
		t.Errorf("warm starts %d < half of %d nodes — basis threading is leaking",
			res.Stats.WarmStarts, res.Stats.NodesExplored)
	}
	cold, err := hardKnapsack(14).Solve(Options{Workers: 1, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.WarmStarts != 0 || cold.Stats.WarmPivots != 0 {
		t.Errorf("NoWarmStart run reported warm work: %+v", cold.Stats)
	}
	if d := res.Obj - cold.Obj; d > 1e-6 || d < -1e-6 {
		t.Errorf("warm %v vs cold %v objective", res.Obj, cold.Obj)
	}
	checkStatsConsistent(t, res.Stats, 1)
	checkStatsConsistent(t, cold.Stats, 1)
}

// TestPureLPIgnoresRootBasis: a model without integer variables never
// branches, so its one LP always takes the presolving Solve. A donor
// root basis — here the model's own optimal basis, so it is compatible —
// must neither warm-start that LP nor cost a fallback, and the solve
// must match one without the donor pivot for pivot.
func TestPureLPIgnoresRootBasis(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		var xs []VarID
		for i := 0; i < 6; i++ {
			xs = append(xs, m.Var(fmt.Sprintf("x%d", i), 0, 10))
		}
		m.AddGE(Sum(xs[0], xs[1], xs[2]), 7)
		m.AddGE(Sum(xs[3], xs[4], xs[5]), 5)
		m.AddLE(Sum(xs[0], xs[3]), 6)
		m.AddLE(Sum(xs[1], xs[4]), 4)
		m.AddLE(T(xs[2], 2).Add(xs[5], 1), 9)
		m.Minimize(T(xs[0], 3).Add(xs[1], 1).Add(xs[2], 4).Add(xs[3], 2).Add(xs[4], 5).Add(xs[5], 1))
		return m
	}
	donor, err := build().prob.Clone().SolveFrom(nil)
	if err != nil || donor.Status != lp.Optimal || donor.Basis() == nil {
		t.Fatalf("donor solve: %v %v", donor, err)
	}
	for _, noPre := range []bool{false, true} {
		plain, err := build().Solve(Options{Workers: 1, NoPresolve: noPre})
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := build().Solve(Options{Workers: 1, NoPresolve: noPre, RootBasis: donor.Basis()})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != Optimal || hinted.Status != Optimal {
			t.Fatalf("NoPresolve=%v: status %v / %v", noPre, plain.Status, hinted.Status)
		}
		if hinted.Stats.WarmStarts != 0 || hinted.Stats.WarmStartFallbacks != 0 {
			t.Errorf("NoPresolve=%v: donor basis reached the pure LP: %d warm starts, %d fallbacks",
				noPre, hinted.Stats.WarmStarts, hinted.Stats.WarmStartFallbacks)
		}
		if hinted.Obj != plain.Obj || hinted.Stats.SimplexPivots != plain.Stats.SimplexPivots {
			t.Errorf("NoPresolve=%v: hinted obj %v / %d pivots, plain obj %v / %d pivots", noPre,
				hinted.Obj, hinted.Stats.SimplexPivots, plain.Obj, plain.Stats.SimplexPivots)
		}
		checkStatsConsistent(t, hinted.Stats, 1)
	}
}

// TestSearchStatsSeedExcluded: a caller-provided warm start installs the
// incumbent without counting as an IncumbentUpdate; only improvements
// found by the search count.
func TestSearchStatsSeedExcluded(t *testing.T) {
	m := NewModel()
	v := m.Binary("v")
	m.Minimize(T(v, 1))
	res, err := m.Solve(Options{Start: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Stats.IncumbentUpdates != 0 {
		t.Errorf("seed acceptance must not count as an incumbent update; got %d", res.Stats.IncumbentUpdates)
	}
}

func TestSearchStatsMerge(t *testing.T) {
	a := SearchStats{
		Workers: 2, NodesExplored: 10, NodesPruned: 2, NodesCutoff: 1,
		InFlightHighWater: 2, LPSolves: 11, SimplexPivots: 100,
		WarmStarts: 8, ColdSolves: 3, WarmStartFallbacks: 1,
		WarmPivots: 40, ColdPivots: 60, Phase1Rows: 30,
		EtaUpdates: 90, Refactorizations: 4, WorkspaceReuses: 6,
		SparseRefactorizations: 4, FillIn: 12, BasisNonzeros: 40,
		IncumbentUpdates: 3, RoundingAttempts: 1, RoundingHits: 1,
		NodesPresolved: 2, BoundsTightened: 7, RowsRemoved: 1, CoefsStrengthened: 3,
		CutsAdded: 5, CutRounds: 2,
		Branchings: 9, GroupBranches: 4,
		Wall:      time.Second,
		PerWorker: []WorkerStats{{Nodes: 6, WarmStarts: 5, EtaUpdates: 50}, {Nodes: 4, WarmStarts: 3, EtaUpdates: 40}},
	}
	b := SearchStats{
		Workers: 4, NodesExplored: 5, InFlightHighWater: 3, LPSolves: 5,
		WarmStarts: 4, ColdSolves: 1, WarmPivots: 10, Phase1Rows: 6,
		EtaUpdates: 10, Refactorizations: 1, WorkspaceReuses: 3,
		SparseRefactorizations: 1, FillIn: 4, BasisNonzeros: 25,
		NodesPresolved: 1, BoundsTightened: 3, CutsAdded: 2, CutRounds: 1,
		Branchings: 2,
		Wall:       time.Second,
		PerWorker:  []WorkerStats{{Nodes: 2, WarmStarts: 4, EtaUpdates: 10}, {Nodes: 1}, {Nodes: 1}, {Nodes: 1}},
	}
	a.Merge(b)
	if a.Workers != 4 || a.NodesExplored != 15 || a.LPSolves != 16 || a.InFlightHighWater != 3 {
		t.Fatalf("merge totals wrong: %+v", a)
	}
	if a.WarmStarts != 12 || a.ColdSolves != 4 || a.WarmStartFallbacks != 1 ||
		a.WarmPivots != 50 || a.ColdPivots != 60 || a.Phase1Rows != 36 {
		t.Fatalf("warm-start merge totals wrong: %+v", a)
	}
	if a.LPSolves != a.WarmStarts+a.ColdSolves {
		t.Fatalf("merge broke the warm-start conservation identity: %+v", a)
	}
	if a.EtaUpdates != 100 || a.Refactorizations != 5 || a.WorkspaceReuses != 9 {
		t.Fatalf("kernel counter merge totals wrong: %+v", a)
	}
	if a.SparseRefactorizations != a.Refactorizations || a.FillIn != 16 {
		t.Fatalf("LU counter merge totals wrong: %+v", a)
	}
	if a.BasisNonzeros != 40 {
		t.Fatalf("BasisNonzeros must merge as a high-water max, got %d", a.BasisNonzeros)
	}
	if a.NodesPresolved != 3 || a.BoundsTightened != 10 || a.RowsRemoved != 1 ||
		a.CoefsStrengthened != 3 || a.CutsAdded != 7 || a.CutRounds != 3 {
		t.Fatalf("presolve/cut counter merge totals wrong: %+v", a)
	}
	if a.Branchings != 11 || a.GroupBranches != 4 {
		t.Fatalf("branching counter merge totals wrong: %+v", a)
	}
	if a.PerWorker[0].EtaUpdates != 60 || a.PerWorker[1].EtaUpdates != 40 {
		t.Fatalf("per-worker kernel counter merge wrong: %+v", a.PerWorker)
	}
	if a.Wall != 2*time.Second {
		t.Fatalf("wall = %v", a.Wall)
	}
	if len(a.PerWorker) != 4 || a.PerWorker[0].Nodes != 8 || a.PerWorker[3].Nodes != 1 {
		t.Fatalf("per-worker merge wrong: %+v", a.PerWorker)
	}
	if a.PerWorker[0].WarmStarts != 9 || a.PerWorker[1].WarmStarts != 3 {
		t.Fatalf("per-worker warm merge wrong: %+v", a.PerWorker)
	}
}

func TestWorkerUtilization(t *testing.T) {
	w := WorkerStats{Busy: 500 * time.Millisecond}
	if u := w.Utilization(time.Second); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v", u)
	}
	if u := w.Utilization(0); u != 0 {
		t.Fatalf("utilization with zero wall = %v", u)
	}
	if u := (WorkerStats{Busy: 2 * time.Second}).Utilization(time.Second); u != 1 {
		t.Fatalf("utilization must clamp to 1, got %v", u)
	}
}
