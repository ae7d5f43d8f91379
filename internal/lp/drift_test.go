package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkInverseExact verifies the workspace's eta-updated B⁻¹ against the
// basis it claims to invert: B⁻¹·A_v must equal the j-th unit vector for
// the variable v basic in row j. Tolerance 1e-6 bounds the drift the
// product-form updates are allowed to accumulate between refactorizations.
func checkInverseExact(t *testing.T, p *Problem, seed int64, step int) {
	t.Helper()
	tb := &p.ws.tab
	m := tb.m
	for j := 0; j < m; j++ {
		v := tb.basis[j]
		for i := 0; i < m; i++ {
			sum := 0.0
			for _, tm := range tb.cols[v] {
				sum += tb.binv[i*m+tm.Var] * tm.Coef
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(sum-want) > 1e-6 {
				t.Fatalf("seed %d step %d: (B⁻¹B)[%d][%d] = %v, want %v", seed, step, i, j, sum, want)
			}
		}
	}
}

// TestEtaUpdatesMatchRefactorization is the numerical-drift property test
// of the product-form kernel: with periodic refactorization disabled (a
// huge interval), long branch-and-bound-style pivot sequences accumulate
// eta updates on B⁻¹ across solves via the factorization cache — and the
// updated inverse must still agree with (a) the basis matrix it claims to
// invert after every solve, (b) a from-scratch Gauss-Jordan
// refactorization at the end of the chain, and (c) the objectives of a
// reference run that refactorizes after every single pivot. The checks
// read the explicit inverse, so the chain runs on KernelDense.
func TestEtaUpdatesMatchRefactorization(t *testing.T) {
	const steps = 60
	runChain := func(seed int64, check bool) []float64 {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		p.SetKernel(KernelDense)
		var objs []float64
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: root: %v", seed, err)
		}
		basis := sol.Basis()
		for step := 0; step < steps; step++ {
			tightenOne(p, rng)
			sol, err = p.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if sol.Status == Optimal {
				objs = append(objs, sol.Obj)
				if check {
					checkInverseExact(t, p, seed, step)
				}
			} else {
				objs = append(objs, math.Inf(1)) // status marker, compared too
			}
			if nb := sol.Basis(); nb != nil {
				basis = nb
			}
		}
		if check && p.ws.tab.m > 0 {
			// Final cross-check of the satellite property: the eta-updated
			// inverse must match a from-scratch refactorization of the same
			// basis element for element.
			tb := &p.ws.tab
			m := tb.m
			etaInv := append([]float64(nil), tb.binv[:m*m]...)
			if !tb.factorize() {
				t.Fatalf("seed %d: final basis singular on refactorization", seed)
			}
			for i := range etaInv {
				if math.Abs(etaInv[i]-tb.binv[i]) > 1e-6 {
					t.Fatalf("seed %d: eta B⁻¹[%d] = %v, refactorized %v",
						seed, i, etaInv[i], tb.binv[i])
				}
			}
		}
		return objs
	}

	for seed := int64(0); seed < 8; seed++ {
		// Eta path: no periodic refactorization at all — every update since
		// the chain's first factorization accumulates.
		prev := SetRefactorInterval(1 << 30)
		etaObjs := runChain(seed, true)
		// Reference path: refactorize after every pivot.
		SetRefactorInterval(1)
		refObjs := runChain(seed, false)
		SetRefactorInterval(prev)

		if len(etaObjs) != len(refObjs) {
			t.Fatalf("seed %d: %d eta objectives vs %d reference", seed, len(etaObjs), len(refObjs))
		}
		for i := range etaObjs {
			a, b := etaObjs[i], refObjs[i]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("seed %d step %d: eta status differs from reference", seed, i)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-5 {
				t.Fatalf("seed %d step %d: eta obj %v, reference obj %v", seed, i, a, b)
			}
		}
	}
}

// TestWorkspaceReuseSkipsFactorization pins the factorization cache:
// re-solving an unchanged problem from its own optimal basis must reuse
// the workspace's B⁻¹ (no refactorization), and the reuse counter obeys
// its identity against the warm-start counter.
func TestWorkspaceReuseSkipsFactorization(t *testing.T) {
	var p *Problem
	var sol *Solution
	var err error
	for seed := int64(0); ; seed++ {
		if seed == 64 {
			t.Fatal("no seed produced an optimal root")
		}
		p = randomLP(rand.New(rand.NewSource(seed)))
		sol, err = p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d root: %v", seed, err)
		}
		if sol.Status == Optimal {
			break
		}
	}
	basis := sol.Basis()
	refacBefore := p.RefactorizationCount()
	for i := 0; i < 5; i++ {
		sol, err = p.SolveFrom(basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("resolve %d: status %v err %v", i, sol.Status, err)
		}
		basis = sol.Basis()
	}
	if got := p.WorkspaceReuseCount(); got != 5 {
		t.Errorf("WorkspaceReuseCount = %d, want 5", got)
	}
	if got := p.RefactorizationCount(); got != refacBefore {
		t.Errorf("RefactorizationCount grew %d -> %d on cache hits", refacBefore, got)
	}
	if p.WorkspaceReuseCount() > p.WarmStartCount() {
		t.Errorf("WorkspaceReuses %d > WarmStarts %d", p.WorkspaceReuseCount(), p.WarmStartCount())
	}
	if p.EtaUpdateCount() > p.PivotCount() {
		t.Errorf("EtaUpdates %d > Pivots %d", p.EtaUpdateCount(), p.PivotCount())
	}
}
