package mps

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"columbas/internal/milp"
)

// matrixCells enumerates the 2×2 differential grid: presolve on/off ×
// cuts on/off. Every cell branches most-fractionally, the solver's only
// variable rule; the cell names keep their branch=mostfrac suffix.
func matrixCells() []struct {
	name string
	opt  milp.Options
} {
	var cells []struct {
		name string
		opt  milp.Options
	}
	for _, pre := range []bool{false, true} {
		for _, cut := range []bool{false, true} {
			cells = append(cells, struct {
				name string
				opt  milp.Options
			}{
				name: fmt.Sprintf("presolve=%v,cuts=%v,branch=mostfrac", !pre, !cut),
				opt: milp.Options{
					NoPresolve: pre,
					NoCuts:     cut,
				},
			})
		}
	}
	return cells
}

// TestMPSCorpusSolverMatrix solves every corpus instance in all 4
// configuration cells and requires the identical status and (for
// optimal instances) the identical objective in every cell. Instances
// with at most 12 integer variables are additionally cross-checked
// against brute-force enumeration over the integer lattice.
func TestMPSCorpusSolverMatrix(t *testing.T) {
	cells := matrixCells()
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.File, func(t *testing.T) {
			for _, c := range cells {
				c := c
				t.Run(c.name, func(t *testing.T) {
					// A fresh parse per cell: Solve mutates internal state
					// (presolve tightens bounds in place).
					in, err := ParseFile(filepath.Join("testdata", e.File))
					if err != nil {
						t.Fatalf("parse: %v", err)
					}
					r, err := in.Model.Solve(c.opt)
					if err != nil {
						t.Fatalf("solve: %v", err)
					}
					if r.Status.String() != e.Status {
						t.Fatalf("status %v, golden %s", r.Status, e.Status)
					}
					if e.Status == "optimal" {
						if got := in.Objective(r.Obj); math.Abs(got-e.Obj) > 1e-6 {
							t.Fatalf("objective %v, golden %v", got, e.Obj)
						}
					}
				})
			}
			t.Run("bruteforce", func(t *testing.T) {
				in, err := ParseFile(filepath.Join("testdata", e.File))
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				obj, status, ok := bruteForce(in)
				if !ok {
					t.Skip("not brute-forceable (too many or unbounded integer variables)")
				}
				if status != e.Status {
					t.Fatalf("brute-force status %s, golden %s", status, e.Status)
				}
				if status == "optimal" && math.Abs(obj-e.Obj) > 1e-6 {
					t.Fatalf("brute-force objective %v, golden %v", obj, e.Obj)
				}
			})
		})
	}
}

// bruteForce enumerates every assignment of the instance's integer
// variables over their (finite) bound boxes, solving the continuous LP
// remainder for each, and returns the best objective in the instance's
// stated sense. It reports ok=false when the instance has more than 12
// integer variables or an integer variable with an infinite bound.
func bruteForce(in *Instance) (best float64, status string, ok bool) {
	m := in.Model
	var ints []milp.VarID
	for v := 0; v < m.NumVars(); v++ {
		if m.IsInt(milp.VarID(v)) {
			ints = append(ints, milp.VarID(v))
		}
	}
	if len(ints) > 12 {
		return 0, "", false
	}
	type span struct {
		lo, hi int
	}
	spans := make([]span, len(ints))
	lattice := 1.0
	for i, v := range ints {
		lo, hi := m.Bounds(v)
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return 0, "", false
		}
		spans[i] = span{int(math.Ceil(lo - 1e-9)), int(math.Floor(hi + 1e-9))}
		lattice *= float64(spans[i].hi-spans[i].lo) + 1
	}
	if lattice > 1e6 {
		return 0, "", false
	}

	found, unbounded := false, false
	bestMin := math.Inf(1)
	var walk func(i int)
	walk = func(i int) {
		if i == len(ints) {
			// All integers fixed; the remaining continuous problem is an
			// LP, which Solve handles exactly (no integer variables left
			// unfixed: a fixed integer is integral by construction).
			r, err := m.Solve(milp.Options{NoCuts: true, NoPresolve: true})
			if err != nil {
				return
			}
			switch r.Status {
			case milp.Optimal:
				if r.Obj < bestMin {
					found, bestMin = true, r.Obj
				}
			case milp.Unbounded:
				unbounded = true
			}
			return
		}
		lo, hi := m.Bounds(ints[i])
		for x := spans[i].lo; x <= spans[i].hi; x++ {
			m.Fix(ints[i], float64(x))
			walk(i + 1)
		}
		m.SetBounds(ints[i], lo, hi)
	}
	walk(0)
	if unbounded {
		return 0, "unbounded", true
	}
	if !found {
		return 0, "infeasible", true
	}
	return in.Objective(bestMin), "optimal", true
}
