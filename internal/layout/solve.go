package layout

import (
	"fmt"
	"time"

	"columbas/internal/geom"
	"columbas/internal/lp"
	"columbas/internal/milp"
	"columbas/internal/obs"
)

// maxSepRounds bounds the lazy non-overlap separation loop.
const maxSepRounds = 30

// solve runs the greedy seed, then iterates MILP solves with lazy
// non-overlap separation: disjunctions (3)-(5) are only added for
// rectangle pairs that actually overlap in a solution. Most pairs are
// already separated by the attachment chain structure, so the models stay
// small — the engineering counterpart of the paper's model-reduction
// theme.
func (b *builder) solve(opt Options) (*Plan, error) {
	seedSp := opt.Obs.Child("greedy seed")
	b.greedyPlace()
	b.snapshotSeed()
	seedSp.SetInt("rects", int64(len(b.rects)))
	seedSp.End()

	plan := &Plan{
		Name:   b.pr.Name,
		Muxes:  b.pr.Muxes,
		Rects:  b.rects,
		Planar: b.pr,
	}

	if opt.SkipMILP {
		plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
		plan.Stats = SolveStats{
			Status:   milp.Feasible,
			SeedUsed: true,
			SeedOnly: true,
		}
		return plan, nil
	}

	guided := opt.Effort == EffortGuided ||
		(opt.GuidedThreshold > 0 && len(b.rects) > opt.GuidedThreshold)
	tl := opt.TimeLimit
	if tl == 0 {
		tl = 30 * time.Second
	}
	stall := opt.StallLimit
	if stall == 0 {
		stall = 200
	}
	deadline := time.Now().Add(tl)
	if !opt.Deadline.IsZero() && opt.Deadline.Before(deadline) {
		deadline = opt.Deadline
	}

	var active [][2]int
	activeSet := map[[2]int]bool{}
	if opt.EagerSeparation {
		n := len(b.rects)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if b.needDisjunction(i, j) {
					p := [2]int{i, j}
					active = append(active, p)
					activeSet[p] = true
				}
			}
		}
	}
	// Delta warm start: a donor design's converged pair set pre-fills the
	// separation loop (skipping the rounds that would rediscover it), its
	// geometry fixes the relative order of donor-placed pairs (collapsing
	// their disjunction binaries) and becomes a candidate starting
	// incumbent each round, and its root basis warm-starts the first MILP
	// round. Everything is validated; stale donor material silently
	// degrades to a cold round — including a mid-loop rebuild when the
	// donor-fixed relations turn out to over-constrain the edited design.
	hint := opt.Warm
	var hintBoxes []geom.Rect
	var hintTops []bool
	var hintMatched []bool
	var hintPairList [][2]int
	hintGeom := false
	hintPairsAdded := 0
	deltaFixed := map[[2]int]bool{}
	if hint != nil {
		if hp := b.hintPairs(hint, activeSet); len(hp) > 0 {
			active = append(active, hp...)
			hintPairList = hp
			hintPairsAdded = len(hp)
		}
		hintBoxes, hintTops, hintMatched, hintGeom = b.hintGeometry(hint)
		if hintGeom && !guided {
			deltaFixedPairs(deltaFixed, active, hintMatched)
		}
	}
	b.deltaBoxes = hintBoxes
	// Later separation rounds only need to re-settle the fresh pairs, so
	// their stall budget shrinks: the first round explores, the rest fix.
	// A round 1 pre-filled from a donor pair set is already a fix round —
	// the disjunctions are converged, not discovered — and exploring the
	// enlarged model at the full stall budget would cost more wall than
	// the cold rounds it replaces.
	roundStall := func(round int) int {
		if round <= 1 && hintPairsAdded == 0 {
			return stall
		}
		if s := stall / 4; s > 30 {
			return s
		}
		return 30
	}
	var last *milp.Result
	var agg milp.SearchStats
	totalNodes := 0
	rounds := 0
	deltaDropped := false
	lastRestricted := false
	for rounds < maxSepRounds {
		if interrupted(opt.Interrupt) {
			// Canceled between rounds: the valid greedy seed stands.
			agg.Interrupted = true
			b.restoreSeed()
			plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
			plan.Stats = SolveStats{
				Status: milp.Feasible, Nodes: totalNodes,
				SeedUsed: true, SeedOnly: true,
				Search: agg,
			}
			plan.Stats.Rounds = rounds
			return plan, nil
		}
		rounds++
		b.deltaFixed = deltaFixed
		b.buildMILP(guided, active)
		var seed []float64
		if !opt.NoSeed {
			seed = b.seedVector()
		}
		// The donor geometry competes with the greedy seed for the round's
		// starting incumbent: whichever validates with the better objective
		// wins. A donor vector that fails the feasibility check (overlaps
		// introduced by the edit, missing rects) is dropped silently.
		usedHintVec := false
		if hintGeom {
			hv := b.hintVector(hintBoxes, hintTops)
			if ok, hobj := b.model.CheckStart(hv); ok {
				use := true
				if seed != nil {
					if sok, sobj := b.model.CheckStart(seed); sok && sobj <= hobj {
						use = false
					}
				}
				if use {
					seed = hv
					usedHintVec = true
				}
			}
		}
		var rootBasis *lp.Basis
		if hint != nil && rounds == 1 {
			rootBasis = hint.RootBasis
		}
		remaining := time.Until(deadline)
		if remaining < time.Second {
			remaining = time.Second
		}
		roundSp := opt.Obs.Child(fmt.Sprintf("milp round %d", rounds))
		// Root cuts stay off on the layout path: on the Table 1 designs
		// they never changed area, L_f or #c_in, while their cold cut-loop
		// re-solves took most of the synthesis time (EXPERIMENTS.md,
		// "Layout solver path").
		res, err := b.model.Solve(milp.Options{
			TimeLimit:   remaining,
			Deadline:    opt.Deadline,
			Interrupt:   opt.Interrupt,
			Gap:         opt.Gap,
			StallLimit:  roundStall(rounds),
			Start:       seed,
			RootBasis:   rootBasis,
			Workers:     opt.Workers,
			NoWarmStart: opt.NoWarmStart,
			NoCuts:      true,
			NoPresolve:  opt.NoPresolve,
		})
		if err != nil {
			roundSp.End()
			return nil, fmt.Errorf("layout: MILP solve: %w", err)
		}
		agg.Merge(res.Stats)
		if res.Status == milp.Infeasible && !deltaDropped &&
			(b.deltaApplied > 0 || hintPairsAdded > 0) {
			// The donor material over-constrained the edited design: a
			// fixed ordering the new extents cannot realise, or a donor
			// disjunction demanding a hard margin separation the cold
			// trajectory would never even ask for (its separation oracle
			// tolerates slack the big-M rows do not). Drop every
			// model-shaping part of the hint — fixed relations and
			// pre-filled pairs — and redo the separation as a fresh cold
			// round; the oracle re-discovers any pair the design genuinely
			// needs, and true infeasibility is re-detected there, so warm
			// and cold verdicts cannot diverge.
			agg.DeltaFallbacks++
			recordRound(roundSp, b, res, len(active))
			totalNodes += res.Nodes
			deltaFixed = map[[2]int]bool{}
			if hintPairsAdded > 0 {
				drop := make(map[[2]int]bool, len(hintPairList))
				for _, p := range hintPairList {
					drop[p] = true
				}
				kept := active[:0]
				for _, p := range active {
					if drop[p] {
						delete(activeSet, p)
						continue
					}
					kept = append(kept, p)
				}
				active = kept
				hintPairsAdded = 0
			}
			deltaDropped = true
			continue
		}
		if hint != nil {
			// Exactly one delta counter per round while a hint is active:
			// warm when any donor material reached the round (incumbent,
			// donor-fixed relations, pre-filled pairs, or the round-1 root
			// basis), fallback when the hint contributed nothing.
			if usedHintVec {
				agg.IncumbentFromHint++
			}
			if usedHintVec || b.deltaApplied > 0 ||
				(rounds == 1 && (hintPairsAdded > 0 || rootBasis != nil)) {
				agg.DeltaWarmStarts++
			} else {
				agg.DeltaFallbacks++
			}
		}
		recordRound(roundSp, b, res, len(active))
		totalNodes += res.Nodes
		if res.Status == milp.Infeasible {
			// The discovered pair set admits no point satisfying every
			// margin and band row. Which pairs get discovered is
			// trajectory-dependent (warm starts, ablations and budgets all
			// steer the separation loop), so erroring here would make the
			// synthesis verdict depend on the solver path taken. The greedy
			// seed is a valid overlap-free layout regardless; deliver it —
			// DRC still judges the result — exactly like the other dead
			// ends (budget exhausted, unresolved overlaps at the cap).
			b.restoreSeed()
			plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
			plan.Stats = SolveStats{
				Status: res.Status, Nodes: totalNodes,
				Vars: b.model.NumVars(), Rows: b.model.NumRows(), Binaries: b.model.NumInt(),
				SeedUsed: true, SeedOnly: true,
				Search: agg,
			}
			plan.Stats.Rounds = rounds
			return plan, nil
		}
		if res.Status != milp.Optimal && res.Status != milp.Feasible {
			// Budget exhausted with no incumbent: the greedy seed stands.
			b.restoreSeed()
			plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
			plan.Stats = SolveStats{
				Status: res.Status, Nodes: totalNodes,
				Vars: b.model.NumVars(), Rows: b.model.NumRows(), Binaries: b.model.NumInt(),
				SeedOnly: true,
				Search:   agg,
			}
			return plan, nil
		}
		plan.XMax, plan.YMax = b.applySolution(res)
		last = res
		lastRestricted = b.deltaApplied > 0
		fresh := b.overlappingPairs(activeSet)
		if len(fresh) == 0 {
			break
		}
		for _, p := range fresh {
			activeSet[p] = true
		}
		active = append(active, fresh...)
		if hintGeom && !guided && !deltaDropped {
			// Freshly separated pairs of donor-placed rects can be fixed
			// too: the donor layout kept them apart even without an
			// explicit disjunction, so its ordering is just as valid.
			deltaFixedPairs(deltaFixed, fresh, hintMatched)
		}
		if time.Now().After(deadline) {
			// Out of budget with unresolved overlaps: keep the valid seed.
			b.restoreSeed()
			plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
			plan.Stats = SolveStats{
				Status: milp.Feasible, Nodes: totalNodes,
				Vars: b.model.NumVars(), Rows: b.model.NumRows(), Binaries: b.model.NumInt(),
				SeedUsed: true, SeedOnly: true,
				Search: agg,
			}
			return plan, nil
		}
	}
	// Separation must have converged to an overlap-free solution;
	// otherwise fall back to the seed, which is overlap-free by
	// construction.
	if len(b.overlappingPairs(activeSet)) > 0 || last == nil {
		b.restoreSeed()
		plan.XMax, plan.YMax = b.seedXMax, b.seedYMax
		plan.Stats.Status = milp.Feasible
		plan.Stats.SeedUsed = true
		plan.Stats.SeedOnly = true
		plan.Stats.Search = agg
		return plan, nil
	}
	status := last.Status
	if lastRestricted && status == milp.Optimal {
		// Donor-fixed relations restrict the search to the donor's
		// topology: the solve is exact within that restriction, but
		// global optimality is unproven, so the honest status is
		// Feasible — same as a cold solve that stalled out.
		status = milp.Feasible
	}
	plan.Stats = SolveStats{
		Status:   status,
		Nodes:    totalNodes,
		Runtime:  last.Runtime,
		Obj:      last.Obj,
		Bound:    last.Bound,
		Vars:     b.model.NumVars(),
		Rows:     b.model.NumRows(),
		Binaries: b.model.NumInt(),
		SeedUsed: true,
		Search:   agg,
	}
	plan.Stats.Rounds = rounds
	// Donor payload for the next similar solve: the converged pair set
	// and the final round's root basis (see HintFromPlan).
	plan.ActivePairs = packPairs(active)
	plan.RootBasis = last.RootBasis
	return plan, nil
}

// interrupted reports whether the cancellation channel has fired (nil:
// never).
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// recordRound attaches one separation round's model shape and solver
// counters to its trace span. No-op on a nil span.
func recordRound(sp *obs.Span, b *builder, res *milp.Result, activePairs int) {
	if sp == nil {
		return
	}
	sp.Label("status", res.Status.String())
	sp.SetInt("vars", int64(b.model.NumVars()))
	sp.SetInt("rows", int64(b.model.NumRows()))
	sp.SetInt("binaries", int64(b.model.NumInt()))
	sp.SetInt("active_pairs", int64(activePairs))
	sp.SetInt("implied_relations", int64(b.impliedRelations))
	st := res.Stats
	sp.SetInt("nodes", st.NodesExplored)
	sp.SetInt("nodes_pruned", st.NodesPruned)
	sp.SetInt("nodes_cutoff", st.NodesCutoff)
	sp.SetInt("lp_solves", st.LPSolves)
	sp.SetInt("simplex_pivots", st.SimplexPivots)
	sp.SetInt("warm_starts", st.WarmStarts)
	sp.SetInt("warm_pivots", st.WarmPivots)
	sp.SetInt("eta_updates", st.EtaUpdates)
	sp.SetInt("refactorizations", st.Refactorizations)
	sp.SetInt("fill_in", st.FillIn)
	sp.SetInt("basis_nonzeros", st.BasisNonzeros)
	sp.SetInt("workspace_reuses", st.WorkspaceReuses)
	sp.SetInt("incumbent_updates", st.IncumbentUpdates)
	sp.SetInt("cuts_added", st.CutsAdded)
	sp.SetInt("cut_rounds", st.CutRounds)
	sp.SetInt("nodes_presolved", st.NodesPresolved)
	sp.SetInt("bounds_tightened", st.BoundsTightened)
	sp.SetInt("branchings", st.Branchings)
	sp.End()
}

// snapshotSeed preserves the greedy geometry: the separation loop derives
// warm starts and guided relations from it, and failed runs restore it.
func (b *builder) snapshotSeed() {
	b.seedBoxes = make([]geom.Rect, len(b.rects))
	b.seedTops = make([]bool, len(b.rects))
	for i, r := range b.rects {
		b.seedBoxes[i] = r.Box
		b.seedTops[i] = r.CtrlTop
	}
}

func (b *builder) restoreSeed() {
	for i, r := range b.rects {
		r.Box = b.seedBoxes[i]
		r.CtrlTop = b.seedTops[i]
	}
}
