package milp

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"columbas/internal/lp"
)

// This file holds the branch-and-bound engine behind Model.Solve: a pool
// of workers pulling nodes from a shared best-first frontier. The same
// loop serves both configurations — with one worker it executes the
// sequential algorithm node for node (pop best, expand, push children);
// with several, workers expand different subtrees concurrently, each on a
// private clone of the LP, and prune against the freshest incumbent bound
// published through an atomic.
//
// Invariants that keep the parallel search exact:
//
//   - a popped node is either discarded as dominated (its bound is no
//     better than the incumbent, which only improves) or fully expanded:
//     its children are pushed under the same lock that removes it from
//     the in-flight set, so no subtree is ever lost;
//   - the search terminates via the frontier only when the frontier is
//     empty AND no worker is mid-expansion — an empty heap alone is not
//     proof of optimality while a worker may still push children;
//   - the global lower bound used for gap termination is the minimum of
//     the best frontier bound and every in-flight node's bound.

// search is the shared state of one Solve call.
type search struct {
	m       *Model
	opt     Options
	workers int

	start    time.Time
	deadline time.Time // zero: no time limit

	// Base bounds of the model; worker problems are reset to these before
	// a node's own bound changes are applied. Root presolve tightens them
	// before any worker exists.
	baseLo, baseHi []float64

	// baseProb is the problem every worker clones: the model's problem
	// itself when no root reduction runs, or a row-owning copy that root
	// presolve tightened/strengthened and the root cut loop extended
	// (prepareRoot). rootBasis, when non-nil, is the optimal basis of the
	// final cut-loop LP, seeded into the root node as its warm start.
	baseProb  *lp.Problem
	rootBasis *lp.Basis
	// cutRowStart is baseProb's row count before the root cut loop
	// appended anything (-1 when no cuts ran): rows at or past it are cut
	// rows, which node presolve must never propagate bounds through.
	cutRowStart int

	// Per-worker scratch for node presolve (lazily sized).
	psLo, psHi [][]float64

	// incBits publishes math.Float64bits of the incumbent objective
	// (+Inf while none exists) so workers mid-expansion can prune without
	// taking the lock. The authoritative value is incObj under mu.
	incBits atomic.Uint64

	mu           sync.Mutex
	cond         *sync.Cond
	frontier     nodeHeap
	inflight     map[int]float64 // worker id -> bound of node being expanded
	nodes        int             // expanded node count
	seq          int             // child insertion order (heap tie-break)
	sinceImprove int
	incumbent    []float64
	incObj       float64
	rootObj      float64 // root relaxation objective (global lower bound)
	rootSolved   bool
	rootBasisOut *lp.Basis // optimal basis of the root node's relaxation
	unbounded    bool
	stopped      bool // a budget, gap, interrupt or error ended the search early
	interrupted  bool // opt.Interrupt fired (subset of stopped)
	err          error

	// Observability counters assembled into Result.Stats (SearchStats).
	// Fields written only under mu are plain; the two written outside the
	// lock on the expansion hot path are atomic adds; wstats entries have
	// a single writer each (their worker) and are read after the join.
	pruned        int64        // under mu: popped nodes dominated pre-LP
	cutoffPre     atomic.Int64 // expand: dominated post-LP, lock-free check
	cutoffPost    int64        // under mu: dominated post-LP, authoritative check
	incUpdates    int64        // under mu: installed incumbents
	roundAttempts atomic.Int64 // rounding-heuristic LP re-solves
	roundHits     int64        // under mu: rounding incumbents installed
	inflightHW    int          // under mu: max concurrent expansions
	lpLimited     int64        // under mu: nodes dropped because their LP hit a limit
	wstats        []WorkerStats

	// Search-tree reduction counters (see SearchStats). The root-only
	// ones are plain (written before workers spawn); the node-level ones
	// are atomic or under mu like their peers above.
	nodesPresolved    int64        // under mu: nodes killed by node presolve
	boundsTightened   atomic.Int64 // root + node presolve tightenings
	rowsRemoved       int64        // root only
	coefsStrengthened int64        // root only
	cutsAdded         int64        // root only
	cutRounds         int64        // root only
	branchings        int64        // under mu: branch decisions taken
	groupBranches     int64        // under mu

	// spare holds one recyclable lp.Solution per worker. expand hands the
	// previous node's Solution back to SolveFromReuse once everything it
	// needs has been copied out (incumbents copy X, children only share
	// the immutable Basis), so the steady-state warm path allocates
	// nothing.
	spare []*lp.Solution
}

func newSearch(m *Model, opt Options) *search {
	s := &search{
		m:       m,
		opt:     opt,
		workers: opt.Workers,
		start:   time.Now(),
		incObj:  math.Inf(1),
	}
	s.cond = sync.NewCond(&s.mu)
	switch {
	case s.workers == 0:
		s.workers = 1
	case s.workers < 0:
		s.workers = runtime.GOMAXPROCS(0)
	}
	if opt.TimeLimit > 0 {
		s.deadline = s.start.Add(opt.TimeLimit)
	}
	if !opt.Deadline.IsZero() && (s.deadline.IsZero() || opt.Deadline.Before(s.deadline)) {
		s.deadline = opt.Deadline
	}
	nv := m.prob.NumVars()
	s.baseLo = make([]float64, nv)
	s.baseHi = make([]float64, nv)
	for v := 0; v < nv; v++ {
		s.baseLo[v], s.baseHi[v] = m.prob.Bounds(v)
	}
	s.incBits.Store(math.Float64bits(math.Inf(1)))
	s.frontier = nodeHeap{{bound: math.Inf(-1)}}
	s.inflight = make(map[int]float64, s.workers)
	s.wstats = make([]WorkerStats, s.workers)
	s.spare = make([]*lp.Solution, s.workers)
	s.baseProb = m.prob
	s.cutRowStart = -1
	s.psLo = make([][]float64, s.workers)
	s.psHi = make([][]float64, s.workers)
	return s
}

// prepareRoot runs the search-tree reductions that happen once, before
// any worker exists: it swaps baseProb to a row-owning copy of the
// model, presolves it (bound tightening into baseLo/baseHi, redundant
// rows, coefficient strengthening), runs the root cutting-plane loop,
// and seeds the root node with the final basis. All LP work done here
// is attributed to worker slot 0 (worker folds add, not assign), so
// every conservation identity over SearchStats stays exact.
func (s *search) prepareRoot() {
	doPresolve := !s.opt.NoPresolve
	doCuts := !s.opt.NoCuts && s.m.NumInt() > 0
	if !doPresolve && !doCuts {
		// No root reductions: the caller-provided donor basis (if any) is
		// the root's only warm start. Dimension mismatches are absorbed by
		// the LP kernel's compatibility check at solve time.
		if !s.opt.NoWarmStart && len(s.frontier) > 0 {
			s.frontier[0].basis = s.opt.RootBasis
		}
		return
	}
	s.baseProb = s.m.prob.CloneWithRows()
	s.baseProb.SetDeadline(s.deadline)
	s.baseProb.SetInterrupt(s.opt.Interrupt)
	if doPresolve && s.rootPresolve() {
		// Activity analysis proved no point — integer or not — fits the
		// bounds: drain the tree. result() turns the empty frontier into
		// Infeasible (or returns a caller-seeded incumbent, matching what
		// the root LP would have concluded).
		s.frontier = s.frontier[:0]
	}
	if doCuts && len(s.frontier) > 0 {
		s.cutRowStart = s.baseProb.NumRows()
		s.baseProb.SetWorkspace(lp.NewWorkspace())
		s.rootCutLoop()
	}
	w := &s.wstats[0]
	w.LPSolves += s.baseProb.SolveCount()
	w.Pivots += s.baseProb.PivotCount()
	w.WarmStarts += s.baseProb.WarmStartCount()
	w.WarmFallbacks += s.baseProb.WarmStartFallbackCount()
	w.WarmPivots += s.baseProb.WarmPivotCount()
	w.Phase1Rows += s.baseProb.Phase1RowCount()
	w.EtaUpdates += s.baseProb.EtaUpdateCount()
	w.Refactorizations += s.baseProb.RefactorizationCount()
	w.WorkspaceReuses += s.baseProb.WorkspaceReuseCount()
	w.FillIn += s.baseProb.FillInCount()
	if nnz := s.baseProb.BasisNonzeroPeak(); nnz > w.BasisNonzeros {
		w.BasisNonzeros = nnz
	}
	if s.rootBasis == nil && !s.opt.NoWarmStart {
		// The cut loop minted no basis of its own (cuts off, or nothing
		// separated before the first solve): fall back to the donor basis.
		s.rootBasis = s.opt.RootBasis
	}
	if len(s.frontier) > 0 {
		s.frontier[0].basis = s.rootBasis
	}
}

// run executes the search and assembles the Result.
func (s *search) run() (*Result, error) {
	if s.opt.Start != nil {
		if ok, obj := s.m.checkFeasible(s.opt.Start); ok {
			s.incumbent = append([]float64(nil), s.opt.Start...)
			s.incObj = obj
			s.incBits.Store(math.Float64bits(obj))
		}
	}
	s.prepareRoot()
	newProb := func() *lp.Problem {
		p := s.baseProb.Clone()
		// Propagate the budget into the LP so one oversized relaxation
		// cannot overshoot it.
		p.SetDeadline(s.deadline)
		// Cancellation must reach the worker's in-flight LP too: a node
		// relaxation can outlive the rest of the search by seconds.
		p.SetInterrupt(s.opt.Interrupt)
		// Each worker owns its kernel workspace: tableau scratch, the LU
		// factors and their cache live for the worker's whole subtree,
		// so after warm-up the expansion loop runs on recycled memory
		// (see lp.Workspace).
		p.SetWorkspace(lp.NewWorkspace())
		return p
	}
	// The interrupt watcher wakes workers blocked on the frontier condvar
	// when the caller cancels; it is joined before the result is
	// assembled so no write can race the final (lock-free) reads.
	var watchStop, watchDone chan struct{}
	if s.opt.Interrupt != nil {
		watchStop = make(chan struct{})
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-s.opt.Interrupt:
				s.mu.Lock()
				s.interrupted = true
				s.haltLocked()
				s.mu.Unlock()
			case <-watchStop:
			}
		}()
	}
	if s.workers == 1 {
		s.worker(0, newProb())
	} else {
		var wg sync.WaitGroup
		for w := 0; w < s.workers; w++ {
			wg.Add(1)
			go func(id int, prob *lp.Problem) {
				defer wg.Done()
				s.worker(id, prob)
			}(w, newProb())
		}
		wg.Wait()
	}
	if watchStop != nil {
		close(watchStop)
		<-watchDone
	}
	return s.result()
}

func (s *search) worker(id int, prob *lp.Problem) {
	w := &s.wstats[id]
	for {
		n, idx, ok := s.next(id)
		if !ok {
			break
		}
		t0 := time.Now()
		if s.expand(id, idx, n, prob) {
			w.Nodes++
		}
		w.Busy += time.Since(t0)
	}
	// The worker's private problem accumulated its LP work; fold it into
	// the worker's stats slot now that no more solves can happen. Adds,
	// not assignments: slot 0 was pre-filled with the root-preparation
	// (presolve + cut loop) LP work.
	w.LPSolves += prob.SolveCount()
	w.Pivots += prob.PivotCount()
	w.WarmStarts += prob.WarmStartCount()
	w.WarmFallbacks += prob.WarmStartFallbackCount()
	w.WarmPivots += prob.WarmPivotCount()
	w.Phase1Rows += prob.Phase1RowCount()
	w.EtaUpdates += prob.EtaUpdateCount()
	w.Refactorizations += prob.RefactorizationCount()
	w.WorkspaceReuses += prob.WorkspaceReuseCount()
	w.FillIn += prob.FillInCount()
	if nnz := prob.BasisNonzeroPeak(); nnz > w.BasisNonzeros {
		w.BasisNonzeros = nnz
	}
}

// loadInc reads the published incumbent objective without locking.
func (s *search) loadInc() float64 { return math.Float64frombits(s.incBits.Load()) }

// pollInterrupt non-blockingly reports whether opt.Interrupt has fired.
func (s *search) pollInterrupt() bool {
	if s.opt.Interrupt == nil {
		return false
	}
	select {
	case <-s.opt.Interrupt:
		return true
	default:
		return false
	}
}

// haltLocked ends the search early; callers hold mu.
func (s *search) haltLocked() {
	s.stopped = true
	s.cond.Broadcast()
}

// next hands the calling worker its next node (and that node's 1-based
// expansion index), blocking while the frontier is empty but another
// worker may still push children. ok is false when the search is over:
// tree exhausted, a budget or gap limit hit, or an error recorded.
func (s *search) next(id int) (n *node, idx int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.err != nil || s.unbounded {
			return nil, 0, false
		}
		if s.opt.Interrupt != nil {
			// Cheap poll so a cancellation stops node hand-out within one
			// expansion even before the watcher goroutine is scheduled.
			select {
			case <-s.opt.Interrupt:
				s.interrupted = true
				s.haltLocked()
				return nil, 0, false
			default:
			}
		}
		if s.opt.NodeLimit > 0 && s.nodes >= s.opt.NodeLimit {
			s.haltLocked()
			return nil, 0, false
		}
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.haltLocked()
			return nil, 0, false
		}
		if s.opt.StallLimit > 0 && s.incumbent != nil && s.sinceImprove >= s.opt.StallLimit {
			s.haltLocked()
			return nil, 0, false
		}
		if len(s.frontier) == 0 {
			if len(s.inflight) == 0 {
				// Tree exhausted: wake any other waiters so they exit too.
				s.cond.Broadcast()
				return nil, 0, false
			}
			s.cond.Wait()
			continue
		}
		s.sinceImprove++
		n := heap.Pop(&s.frontier).(*node)
		if n.bound >= s.incObj-1e-9 {
			s.pruned++
			continue // already dominated
		}
		// Gap termination: the global lower bound is the minimum over the
		// best frontier node (n, by heap order) and every in-flight node.
		if s.opt.Gap > 0 && !math.IsInf(s.incObj, 1) {
			lb := n.bound
			for _, b := range s.inflight {
				if b < lb {
					lb = b
				}
			}
			if s.incObj-lb <= s.opt.Gap*math.Max(1, math.Abs(s.incObj)) {
				heap.Push(&s.frontier, n)
				s.haltLocked()
				return nil, 0, false
			}
		}
		s.nodes++
		s.inflight[id] = n.bound
		if len(s.inflight) > s.inflightHW {
			s.inflightHW = len(s.inflight)
		}
		return n, s.nodes, true
	}
}

// done removes the worker's node from the in-flight set. Extra work to be
// performed under the same critical section (pushing children, updating
// the incumbent) is passed as fn; the removal and the push must be atomic
// so an empty frontier is never observed while children are pending.
func (s *search) done(id int, fn func()) {
	s.mu.Lock()
	if fn != nil {
		fn()
	}
	delete(s.inflight, id)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// setIncumbentLocked installs a new incumbent; callers hold mu.
func (s *search) setIncumbentLocked(x []float64, obj float64, resetStall bool) {
	if resetStall {
		s.sinceImprove = 0
	}
	s.incUpdates++
	s.incumbent = append([]float64(nil), x...)
	s.incObj = obj
	s.incBits.Store(math.Float64bits(obj))
}

// expand solves the node's LP relaxation on the worker's private problem
// and either records an incumbent or branches. The return value reports
// whether the node counted as explored — node presolve can prove a node
// infeasible before its LP, in which case it is excluded from
// NodesExplored (and the worker's node count) and counted as
// NodesPresolved instead, keeping the LP-solve identity exact.
func (s *search) expand(id, idx int, n *node, prob *lp.Problem) bool {
	// Reset to base bounds, then walk the chain root→leaf so deeper
	// changes win.
	for v := range s.baseLo {
		prob.SetBounds(v, s.baseLo[v], s.baseHi[v])
	}
	var chain []*node
	for cur := n; cur != nil; cur = cur.parent {
		chain = append(chain, cur)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, bc := range chain[i].changes {
			// Intersect rather than overwrite: group branches record the
			// absolute binary fixings {0,0}/{1,1}, which must not escape
			// bounds root presolve has since proven — rows deleted as
			// redundant are only redundant inside that box. An empty
			// intersection proves the node infeasible without any LP work.
			lo, hi := prob.Bounds(bc.v)
			lo = math.Max(lo, bc.lo)
			hi = math.Min(hi, bc.hi)
			if lo > hi {
				s.done(id, func() {
					s.nodes--
					s.nodesPresolved++
				})
				return false
			}
			prob.SetBounds(bc.v, lo, hi)
		}
	}
	// Node presolve: propagate this node's bound changes through the rows
	// before paying for a simplex run. The root skips it — prepareRoot
	// already ran the same propagation to a fixpoint.
	if !s.opt.NoPresolve && n.parent != nil {
		tight, infeas := s.nodePresolve(id, prob)
		s.boundsTightened.Add(tight)
		if infeas {
			s.done(id, func() {
				s.nodes--
				s.nodesPresolved++
			})
			return false
		}
	}
	// Warm-start the relaxation from the parent's optimal basis: the
	// child differs from the parent by one bound change, so a short dual
	// repair replaces a cold solve. A node without a basis (the root, or
	// a child of a node whose basis was lost) in a model with integer
	// variables is solved cold on the full tableau, so its children get a
	// basis to warm-start from. A model without integer
	// variables never branches and always goes through the presolving
	// Solve, donor root basis or not: that is cheaper when the model
	// reduces well, as the zero-binary large-scale layouts do.
	var sol *lp.Solution
	var err error
	// The worker's spare Solution from the previous expansion is recycled
	// into this solve (its X was copied out before it was parked);
	// whatever Solution this expansion ends up holding is parked as the
	// next spare on every exit path.
	reuse := s.spare[id]
	s.spare[id] = nil
	defer func() { s.spare[id] = sol }()
	if s.opt.NoWarmStart || s.m.NumInt() == 0 {
		sol, err = prob.Solve()
	} else {
		sol, err = prob.SolveFromReuse(n.basis, reuse)
	}
	// Nothing reads the parent's snapshot again, but the node stays
	// reachable through its children's parent pointers: drop it so the
	// tree holds one snapshot per frontier generation, not one per node.
	n.basis = nil
	if err != nil {
		s.done(id, func() {
			if s.err == nil {
				s.err = err
			}
			s.haltLocked()
		})
		return true
	}
	switch sol.Status {
	case lp.Infeasible:
		s.done(id, nil)
		return true
	case lp.Unbounded:
		s.done(id, func() {
			if n.parent == nil {
				s.unbounded = true
				s.haltLocked()
			}
			// Non-root unbounded: unexplorable, bound stays with siblings.
		})
		return true
	case lp.IterLimit:
		// The relaxation ran out of budget (deadline) or broke down
		// numerically: the subtree is unexplorable, not infeasible. The
		// flag keeps result() from claiming optimality or infeasibility
		// over a tree with dropped subtrees.
		s.done(id, func() { s.lpLimited++ })
		return true
	}
	obj := sol.Obj + s.m.objC

	// Prune against the freshest published incumbent before any further
	// work; the authoritative re-check happens under the lock below.
	if n.parent != nil && obj >= s.loadInc()-1e-9 {
		s.cutoffPre.Add(1)
		s.done(id, nil)
		return true
	}

	// Rounding heuristic while no incumbent exists: fix the integer part
	// of the relaxation (group-aware) and re-solve for the continuous
	// part. Cheap, and it often rescues cold starts.
	var roundX []float64
	var roundObj float64
	haveRound := false
	if math.IsInf(s.loadInc(), 1) && idx%16 == 1 {
		s.roundAttempts.Add(1)
		roundX, roundObj, haveRound = s.m.tryRoundingOn(prob, sol.X)
	}

	branchVar, branchGroup := s.m.pickBranch(sol.X)
	if s.opt.NoGroupBranching && branchGroup >= 0 {
		// Ablation mode: resolve the group with binary branching on its
		// most fractional member instead.
		branchGroup = -1
		branchVar = -1
		bestFrac := intTol
		for _, g := range s.m.groups {
			for _, v := range g {
				if f := frac(sol.X[v]); f > bestFrac {
					bestFrac = f
					branchVar = int(v)
				}
			}
		}
		if branchVar < 0 {
			bv, _ := s.m.pickBranchVarOnly(sol.X)
			branchVar = bv
		}
	}
	// Child bound changes are prepared outside the lock; prob still holds
	// the node's bounds, so Bounds(branchVar) sees the node-local range.
	var downCh, upCh []boundChange
	if branchGroup < 0 && branchVar >= 0 {
		lo, hi := prob.Bounds(branchVar)
		fl := math.Floor(sol.X[branchVar])
		downCh = []boundChange{{branchVar, lo, fl}}
		upCh = []boundChange{{branchVar, fl + 1, hi}}
	}

	s.done(id, func() {
		if n.parent == nil {
			s.rootObj, s.rootSolved = obj, true
			if b := sol.Basis(); b != nil {
				s.rootBasisOut = b
			}
		}
		if haveRound && roundObj < s.incObj-1e-9 {
			s.roundHits++
			s.setIncumbentLocked(roundX, roundObj, true)
		}
		if obj >= s.incObj-1e-9 {
			s.cutoffPost++
			return // dominated by an incumbent found meanwhile
		}
		if branchVar < 0 && branchGroup < 0 {
			// Integer feasible: new incumbent. Only a significant
			// improvement resets the stall counter — a trickle of
			// marginal gains should not keep a budgeted search alive.
			reset := obj < s.incObj-math.Max(1e-6, 0.002*math.Abs(s.incObj))
			s.setIncumbentLocked(sol.X, obj, reset)
			return
		}
		// Children warm-start from this node's optimal basis; the snapshot
		// is immutable and shared by all siblings.
		nb := sol.Basis()
		if branchGroup >= 0 {
			// k-way branch: each child fixes a different member to 0 and
			// the rest to 1.
			s.branchings++
			s.groupBranches++
			g := s.m.groups[branchGroup]
			for _, zero := range g {
				ch := &node{bound: obj, depth: n.depth + 1, parent: n, seq: s.seq, basis: nb}
				s.seq++
				for _, v := range g {
					if v == zero {
						ch.changes = append(ch.changes, boundChange{int(v), 0, 0})
					} else {
						ch.changes = append(ch.changes, boundChange{int(v), 1, 1})
					}
				}
				heap.Push(&s.frontier, ch)
			}
			return
		}
		// Standard two-way branch on a fractional integer variable.
		s.branchings++
		down := &node{bound: obj, depth: n.depth + 1, parent: n, seq: s.seq, changes: downCh, basis: nb}
		s.seq++
		up := &node{bound: obj, depth: n.depth + 1, parent: n, seq: s.seq, changes: upCh, basis: nb}
		s.seq++
		heap.Push(&s.frontier, down)
		heap.Push(&s.frontier, up)
	})
	return true
}

// statsSnapshot assembles the SearchStats after all workers have joined;
// no further writes can race with it.
func (s *search) statsSnapshot() SearchStats {
	st := SearchStats{
		Workers:           s.workers,
		Interrupted:       s.interrupted,
		NodesExplored:     int64(s.nodes),
		NodesPruned:       s.pruned,
		NodesCutoff:       s.cutoffPre.Load() + s.cutoffPost,
		InFlightHighWater: s.inflightHW,
		IncumbentUpdates:  s.incUpdates,
		RoundingAttempts:  s.roundAttempts.Load(),
		RoundingHits:      s.roundHits,
		PerWorker:         s.wstats,

		NodesPresolved:    s.nodesPresolved,
		BoundsTightened:   s.boundsTightened.Load(),
		RowsRemoved:       s.rowsRemoved,
		CoefsStrengthened: s.coefsStrengthened,
		CutsAdded:         s.cutsAdded,
		CutRounds:         s.cutRounds,
		Branchings:        s.branchings,
		GroupBranches:     s.groupBranches,
	}
	for _, w := range s.wstats {
		st.LPSolves += w.LPSolves
		st.SimplexPivots += w.Pivots
		st.WarmStarts += w.WarmStarts
		st.WarmStartFallbacks += w.WarmFallbacks
		st.WarmPivots += w.WarmPivots
		st.Phase1Rows += w.Phase1Rows
		st.EtaUpdates += w.EtaUpdates
		st.Refactorizations += w.Refactorizations
		st.WorkspaceReuses += w.WorkspaceReuses
		st.FillIn += w.FillIn
		if w.BasisNonzeros > st.BasisNonzeros {
			st.BasisNonzeros = w.BasisNonzeros
		}
	}
	st.SparseRefactorizations = st.Refactorizations
	st.ColdSolves = st.LPSolves - st.WarmStarts
	st.ColdPivots = st.SimplexPivots - st.WarmPivots
	return st
}

// result assembles the Result after all workers have exited.
func (s *search) result() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{
		Status:  Limit,
		Obj:     math.Inf(1),
		Bound:   math.Inf(-1),
		Nodes:   s.nodes,
		Runtime: time.Since(s.start),
		Stats:   s.statsSnapshot(),
	}
	res.Stats.Wall = res.Runtime
	res.RootBasis = s.rootBasisOut
	if res.RootBasis == nil && s.rootBasis != s.opt.RootBasis {
		// Fall back to the cut loop's final basis — but never echo the
		// caller's own donor basis back as this solve's root basis.
		res.RootBasis = s.rootBasis
	}
	if s.unbounded {
		res.Status = Unbounded
		return res, nil
	}
	if s.rootSolved {
		res.Bound = s.rootObj
	}
	if s.incumbent != nil {
		res.X = s.incumbent
		res.Obj = s.incObj
		// An empty frontier proves optimality even when a budget fired on
		// the final nodes: halted workers never abandon popped nodes, so
		// an empty heap with all workers drained means the whole tree was
		// expanded or dominated — unless some node's LP hit a limit, in
		// which case its subtree was dropped unexplored and the incumbent
		// is only known to be feasible.
		if len(s.frontier) == 0 && s.lpLimited == 0 {
			res.Status = Optimal
			res.Bound = s.incObj
		} else {
			res.Status = Feasible
			// Bound is the best outstanding node bound; with dropped
			// subtrees and an empty frontier, the root bound is all that
			// remains known.
			best := s.incObj
			if len(s.frontier) == 0 {
				best = res.Bound
			}
			for _, n := range s.frontier {
				if n.bound < best {
					best = n.bound
				}
			}
			res.Bound = best
		}
		return res, nil
	}
	// No incumbent: an exhausted tree proves infeasibility only when no
	// subtree was dropped by an LP limit along the way.
	if len(s.frontier) == 0 && s.lpLimited == 0 {
		res.Status = Infeasible
	}
	return res, nil
}
