package lp

import "testing"

// crashCase is one small LP for the slack crash start: which rows hold
// at the start point (and so start on their own slack), and the sign of
// the artificial each violated row starts on.
type crashCase struct {
	p       *Problem
	onSlack []bool    // per row: the slack is basic at the start
	artSign []float64 // per row: artificial coefficient (violated rows only)
}

// checkCrash builds the cold-start tableau of c.p and checks its basis
// row by row: a row that holds starts on its slack, with its artificial
// nonbasic, fixed at zero and +1; a violated row starts on a basic
// artificial carrying its residual's sign. It then solves the problem
// cold, presolved and not, against the vertex oracle, and checks that
// the cold path reports exactly the violated rows as phase-1 rows.
func checkCrash(t *testing.T, c crashCase, want Status) {
	t.Helper()
	p := c.p
	tb := p.newTableau()
	violated := 0
	for i, slack := range c.onSlack {
		s, a := tb.nStru+i, tb.nArt+i
		if slack {
			if tb.basis[i] != s || tb.state[a] == basic || tb.hi[a] != 0 || tb.cols[a][0].Coef != 1 {
				t.Fatalf("row %d holds at the start but starts on column %d (slack %d), artificial coef %v hi %v",
					i, tb.basis[i], s, tb.cols[a][0].Coef, tb.hi[a])
			}
			continue
		}
		violated++
		if tb.basis[i] != a || tb.state[s] == basic {
			t.Fatalf("row %d is violated at the start but starts on column %d (artificial %d)", i, tb.basis[i], a)
		}
		if got := tb.cols[a][0].Coef; got != c.artSign[i] {
			t.Fatalf("row %d: artificial coefficient %v, want %v", i, got, c.artSign[i])
		}
	}
	if tb.p1rows != violated {
		t.Fatalf("tableau counts %d phase-1 rows, want %d", tb.p1rows, violated)
	}

	var o vertexOracle
	cold, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	o.check(t, p, cold, 0, -1)
	if cold.Status != want {
		t.Fatalf("SolveFrom(nil) status %v, want %v", cold.Status, want)
	}
	if got := p.Phase1RowCount(); got != int64(violated) {
		t.Fatalf("Phase1RowCount = %d, want %d", got, violated)
	}
	oneShot, err := p.Clone().Solve()
	if err != nil {
		t.Fatal(err)
	}
	o.check(t, p, oneShot, 0, -1)
}

// TestCrashStartSatisfiedRows: an LE and a GE row that both hold at the
// origin start on their slacks, so phase 1 has nothing to repair — it
// takes no pivot and the solve reports no phase-1 row.
func TestCrashStartSatisfiedRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 4, -1)
	y := p.AddVar(0, 4, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 6)   // 0 ≤ 6
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, -3) // 0 ≥ −3
	tb := p.newTableau()
	if st := tb.phase1(); st != Optimal || tb.iters != 0 {
		t.Fatalf("phase 1 from a satisfied start: status %v after %d pivots, want optimal after 0", st, tb.iters)
	}
	checkCrash(t, crashCase{p: p, onSlack: []bool{true, true}}, Optimal)
	wantObj(t, solveOK(t, p), -6)
}

// TestCrashStartEqualityRows: an EQ row with zero residual at the start
// point keeps its slack (fixed at 0) basic; EQ rows with a nonzero
// residual start on artificials of the residual's sign.
func TestCrashStartEqualityRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1, 3, 0)
	y := p.AddVar(0, 2, 2)
	z := p.AddVar(0, 5, 1)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 1) // 1 − 0 = 1: holds
	p.AddConstraint([]Term{{x, 1}, {z, 1}}, EQ, 4)  // residual +3
	p.AddConstraint([]Term{{x, 1}, {z, -1}}, EQ, 0) // residual −1
	checkCrash(t, crashCase{
		p:       p,
		onSlack: []bool{true, false, false},
		artSign: []float64{0, 1, -1},
	}, Optimal)
	// x = z = 2, y = 1.
	wantObj(t, solveOK(t, p), 4)
}

// TestCrashStartFreeStructural: a free structural starts nonbasic at 0,
// and the residuals are taken at that point.
func TestCrashStartFreeStructural(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-Inf, Inf, 1)
	y := p.AddVar(0, 3, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, -2) // 0 ≥ −2: holds
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1)   // residual +1
	tb := p.newTableau()
	if tb.state[x] != atLo || tb.x[x] != 0 {
		t.Fatalf("free structural starts in state %d at %v, want nonbasic at 0", tb.state[x], tb.x[x])
	}
	checkCrash(t, crashCase{
		p:       p,
		onSlack: []bool{true, false},
		artSign: []float64{0, 1},
	}, Optimal)
	// x ≥ max(y − 2, 1 − y) is least at y = 1.5.
	wantObj(t, solveOK(t, p), -0.5)
}

// TestCrashStartInfeasible: a row that holds at the start keeps its
// slack even when another, violated row makes the LP infeasible; phase 1
// proves it.
func TestCrashStartInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 2, 1)
	y := p.AddVar(0, 2, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 3) // holds
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5) // residual +5, unreachable
	checkCrash(t, crashCase{
		p:       p,
		onSlack: []bool{true, false},
		artSign: []float64{0, 1},
	}, Infeasible)
}
