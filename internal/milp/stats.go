package milp

import "time"

// SearchStats is the per-solve counter set of the branch-and-bound worker
// pool, returned in Result.Stats and documented counter by counter in
// docs/metrics.md. Counters with a single writer (per-worker work totals)
// are plain fields aggregated after the pool joins; the few shared ones
// are maintained with atomic adds or under the frontier mutex, so
// collection adds no measurable overhead to the search hot path.
type SearchStats struct {
	// Workers is the pool size the solve actually ran with.
	Workers int
	// NodesExplored counts nodes popped from the frontier and handed to a
	// worker for expansion (each costs exactly one LP relaxation solve).
	NodesExplored int64
	// NodesPruned counts nodes popped but discarded before their LP was
	// solved because their bound was already dominated by the incumbent.
	NodesPruned int64
	// NodesCutoff counts nodes whose LP relaxation was solved and then
	// discarded because the relaxation objective was dominated by the
	// incumbent (work the pruning could not avoid).
	NodesCutoff int64
	// InFlightHighWater is the maximum number of nodes that were being
	// expanded concurrently — ≤ Workers; below it, the frontier starved.
	InFlightHighWater int
	// LPSolves counts LP relaxation solves across all workers, including
	// rounding-heuristic re-solves and the root cut loop's separation
	// solves: LPSolves = NodesExplored + RoundingAttempts + CutRounds (the
	// conservation identity TestSearchStatsConservation pins for both
	// sequential and parallel runs).
	LPSolves int64
	// SimplexPivots is the total simplex iterations (phase 1 + 2) behind
	// LPSolves — the solver's innermost unit of work.
	SimplexPivots int64
	// WarmStarts counts LP solves that re-entered the simplex from the
	// parent node's basis instead of a full two-phase cold start, and
	// ColdSolves the rest (the root, rounding re-solves, and fallbacks):
	// LPSolves = WarmStarts + ColdSolves is the warm-start conservation
	// identity (pinned alongside the node identity by the stats tests).
	WarmStarts int64
	ColdSolves int64
	// WarmStartFallbacks counts warm attempts abandoned for a cold
	// re-solve (singular or stale parent basis); they are included in
	// ColdSolves.
	WarmStartFallbacks int64
	// WarmPivots / ColdPivots split SimplexPivots by path:
	// SimplexPivots = WarmPivots + ColdPivots.
	WarmPivots int64
	ColdPivots int64
	// Phase1Rows accumulates, over every cold solve, the rows that
	// started phase 1 on an artificial because the start point violated
	// them — the repair work warm starts exist to skip. Rows that hold at
	// the start begin on their slack and count zero, as do warm solves.
	Phase1Rows int64
	// EtaUpdates counts the product-form updates applied to the LU
	// factors — one per basis-changing simplex pivot. EtaUpdates ≤
	// SimplexPivots always holds (bound-flip iterations change no basis).
	EtaUpdates int64
	// Refactorizations counts from-scratch LU factorizations of the
	// basis: warm-start installs that missed the per-worker factorization
	// cache plus the counted periodic refactorizations that flush
	// eta-update drift.
	Refactorizations int64
	// WorkspaceReuses counts LP solves that skipped factorization
	// entirely because the worker's workspace already held the factors
	// of exactly the requested basis — the steady-state parent→child
	// case.
	// WorkspaceReuses ≤ WarmStarts always holds.
	WorkspaceReuses int64
	// SparseRefactorizations always equals Refactorizations.
	//
	// Deprecated: the LP kernel has one engine; read Refactorizations.
	SparseRefactorizations int64
	// FillIn accumulates, over every refactorization, the entries the LU
	// factors hold beyond the basis's own nonzeros — the memory price of
	// factorizing. FillIn/Refactorizations is the mean fill per
	// refactorization the scaling benchmark tracks.
	FillIn int64
	// BasisNonzeros is the high-water basis-matrix nonzero count observed
	// at factorization time — the m-by-m basis's actual density.
	// A high-water mark: Merge takes the max, not the sum.
	BasisNonzeros int64
	// IncumbentUpdates counts installed incumbents (seed acceptance
	// excluded; rounding hits and integer-feasible nodes included).
	IncumbentUpdates int64
	// RoundingAttempts / RoundingHits count the cold-start rounding
	// heuristic's re-solves and how many produced an improving incumbent.
	RoundingAttempts int64
	RoundingHits     int64
	// NodesPresolved counts nodes discarded by node presolve: their local
	// bounds were proven infeasible by activity propagation before any
	// simplex work was spent. Such nodes never reach the LP, so they are
	// excluded from NodesExplored and the LP-solve conservation identity
	// stays exact.
	NodesPresolved int64
	// BoundsTightened counts variable bounds tightened by activity-based
	// presolve, at the root (to a fixpoint) and at nodes (local
	// propagation of the branch's bound changes).
	BoundsTightened int64
	// RowsRemoved counts constraint rows dropped at the root because the
	// base bounds prove them redundant (never violable).
	RowsRemoved int64
	// CoefsStrengthened counts binary-variable coefficients tightened by
	// the root's coefficient-strengthening pass.
	CoefsStrengthened int64
	// CutsAdded counts the Gomory and knapsack cover cuts appended to the
	// root problem; CutRounds counts the separation loop's LP solves (one
	// per round, including the final round that separated nothing), which
	// is exactly the root-preparation term of the LP-solve conservation
	// identity.
	CutsAdded int64
	CutRounds int64
	// Branchings counts branch decisions taken; GroupBranches counts
	// those resolved by the k-way disjunction group fast path. Every
	// other branching is a two-way branch on the most fractional integer
	// variable, so GroupBranches ≤ Branchings always holds.
	Branchings    int64
	GroupBranches int64
	// DeltaWarmStarts / DeltaFallbacks / IncumbentFromHint are the
	// delta-aware pipeline's counters. The search itself never writes
	// them: the layout layer increments them on the merged per-solve stats
	// when a caller-provided warm hint (a donor design's geometry, active
	// disjunction pairs and root basis) was applied to a separation round
	// (DeltaWarmStarts), when a hint was present but nothing in it was
	// usable (DeltaFallbacks), or when the donor's geometry vector
	// survived validation and became the round's starting incumbent
	// (IncumbentFromHint). Identities: IncumbentFromHint ≤
	// DeltaWarmStarts, and per layout solve DeltaWarmStarts +
	// DeltaFallbacks ≤ separation rounds; all three are zero when no hint
	// was supplied.
	DeltaWarmStarts   int64
	DeltaFallbacks    int64
	IncumbentFromHint int64
	// Interrupted reports that the search was halted by Options.Interrupt
	// (an external cancellation, e.g. an HTTP client disconnect) rather
	// than running to a status or budget of its own. Merge ORs it across
	// rounds, so a layout-level SolveStats.Search.Interrupted proves the
	// cancellation actually reached the solver.
	Interrupted bool
	// Wall is the solve's wall-clock time (same value as Result.Runtime).
	Wall time.Duration
	// PerWorker holds one entry per pool worker, indexed by worker id.
	PerWorker []WorkerStats
}

// WorkerStats is one worker's share of the search.
type WorkerStats struct {
	// Nodes is the number of nodes this worker expanded.
	Nodes int64
	// LPSolves and Pivots are the worker's private-LP work totals.
	LPSolves int64
	Pivots   int64
	// WarmStarts / WarmFallbacks / WarmPivots / Phase1Rows are the
	// worker's share of the warm-start counters (see SearchStats).
	WarmStarts    int64
	WarmFallbacks int64
	WarmPivots    int64
	Phase1Rows    int64
	// EtaUpdates / Refactorizations / WorkspaceReuses / FillIn are the
	// worker's share of the kernel memory-model counters, and
	// BasisNonzeros the worker's own factorization-time high-water mark
	// (see SearchStats).
	EtaUpdates       int64
	Refactorizations int64
	WorkspaceReuses  int64
	FillIn           int64
	BasisNonzeros    int64
	// Busy is the wall-clock time the worker spent expanding nodes (LP
	// solves included); Busy/Wall is the worker's utilization.
	Busy time.Duration
}

// Utilization returns the fraction of wall this worker spent expanding
// nodes (0 when wall is 0).
func (w WorkerStats) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	u := float64(w.Busy) / float64(wall)
	if u > 1 {
		u = 1
	}
	return u
}

// Merge accumulates other into st: counters add, high-water marks take
// the maximum, and per-worker entries add index-wise (padding when the
// worker counts differ). layout's lazy-separation loop uses it to report
// one SearchStats across all separation rounds.
func (st *SearchStats) Merge(other SearchStats) {
	if other.Workers > st.Workers {
		st.Workers = other.Workers
	}
	st.NodesExplored += other.NodesExplored
	st.NodesPruned += other.NodesPruned
	st.NodesCutoff += other.NodesCutoff
	if other.InFlightHighWater > st.InFlightHighWater {
		st.InFlightHighWater = other.InFlightHighWater
	}
	st.LPSolves += other.LPSolves
	st.SimplexPivots += other.SimplexPivots
	st.WarmStarts += other.WarmStarts
	st.ColdSolves += other.ColdSolves
	st.WarmStartFallbacks += other.WarmStartFallbacks
	st.WarmPivots += other.WarmPivots
	st.ColdPivots += other.ColdPivots
	st.Phase1Rows += other.Phase1Rows
	st.EtaUpdates += other.EtaUpdates
	st.Refactorizations += other.Refactorizations
	st.WorkspaceReuses += other.WorkspaceReuses
	st.SparseRefactorizations = st.Refactorizations
	st.FillIn += other.FillIn
	if other.BasisNonzeros > st.BasisNonzeros {
		st.BasisNonzeros = other.BasisNonzeros
	}
	st.IncumbentUpdates += other.IncumbentUpdates
	st.RoundingAttempts += other.RoundingAttempts
	st.RoundingHits += other.RoundingHits
	st.NodesPresolved += other.NodesPresolved
	st.BoundsTightened += other.BoundsTightened
	st.RowsRemoved += other.RowsRemoved
	st.CoefsStrengthened += other.CoefsStrengthened
	st.CutsAdded += other.CutsAdded
	st.CutRounds += other.CutRounds
	st.Branchings += other.Branchings
	st.GroupBranches += other.GroupBranches
	st.DeltaWarmStarts += other.DeltaWarmStarts
	st.DeltaFallbacks += other.DeltaFallbacks
	st.IncumbentFromHint += other.IncumbentFromHint
	st.Interrupted = st.Interrupted || other.Interrupted
	st.Wall += other.Wall
	for len(st.PerWorker) < len(other.PerWorker) {
		st.PerWorker = append(st.PerWorker, WorkerStats{})
	}
	for i, w := range other.PerWorker {
		st.PerWorker[i].Nodes += w.Nodes
		st.PerWorker[i].LPSolves += w.LPSolves
		st.PerWorker[i].Pivots += w.Pivots
		st.PerWorker[i].WarmStarts += w.WarmStarts
		st.PerWorker[i].WarmFallbacks += w.WarmFallbacks
		st.PerWorker[i].WarmPivots += w.WarmPivots
		st.PerWorker[i].Phase1Rows += w.Phase1Rows
		st.PerWorker[i].EtaUpdates += w.EtaUpdates
		st.PerWorker[i].Refactorizations += w.Refactorizations
		st.PerWorker[i].WorkspaceReuses += w.WorkspaceReuses
		st.PerWorker[i].FillIn += w.FillIn
		if w.BasisNonzeros > st.PerWorker[i].BasisNonzeros {
			st.PerWorker[i].BasisNonzeros = w.BasisNonzeros
		}
		st.PerWorker[i].Busy += w.Busy
	}
}
