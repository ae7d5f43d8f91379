package mps

import (
	"bytes"
	"path/filepath"
	"testing"

	"columbas/internal/milp"
)

// sameInstance asserts structural equivalence of two parsed instances:
// identical variable count, order-aligned bounds/integrality/objective,
// identical rows, identical sense and constant. Variable and row names
// may differ (the writer renames), so comparison is positional.
func sameInstance(t *testing.T, a, b *Instance) {
	t.Helper()
	if a.Maximize != b.Maximize {
		t.Fatalf("Maximize %v vs %v", a.Maximize, b.Maximize)
	}
	ma, mb := a.Model, b.Model
	if ma.NumVars() != mb.NumVars() || ma.NumRows() != mb.NumRows() || ma.NumInt() != mb.NumInt() {
		t.Fatalf("shape (%d,%d,%d) vs (%d,%d,%d)",
			ma.NumVars(), ma.NumRows(), ma.NumInt(),
			mb.NumVars(), mb.NumRows(), mb.NumInt())
	}
	if ma.ObjConst() != mb.ObjConst() {
		t.Fatalf("ObjConst %v vs %v", ma.ObjConst(), mb.ObjConst())
	}
	for v := 0; v < ma.NumVars(); v++ {
		id := milp.VarID(v)
		alo, ahi := ma.Bounds(id)
		blo, bhi := mb.Bounds(id)
		if alo != blo || ahi != bhi || ma.IsInt(id) != mb.IsInt(id) || ma.ObjCoef(id) != mb.ObjCoef(id) {
			t.Fatalf("var %d: bounds [%v,%v]/[%v,%v] int %v/%v obj %v/%v",
				v, alo, ahi, blo, bhi, ma.IsInt(id), mb.IsInt(id), ma.ObjCoef(id), mb.ObjCoef(id))
		}
	}
	ra, rb := ma.Rows(), mb.Rows()
	for i := range ra {
		if ra[i].Sense != rb[i].Sense || ra[i].RHS != rb[i].RHS || len(ra[i].Terms) != len(rb[i].Terms) {
			t.Fatalf("row %d: %+v vs %+v", i, ra[i], rb[i])
		}
		for j := range ra[i].Terms {
			if ra[i].Terms[j] != rb[i].Terms[j] {
				t.Fatalf("row %d term %d: %+v vs %+v", i, j, ra[i].Terms[j], rb[i].Terms[j])
			}
		}
	}
}

// TestRoundTripCorpus checks the write→parse→write fixpoint on every
// corpus instance: writing a parsed instance, re-parsing, and writing
// again yields byte-identical output and an equivalent model.
func TestRoundTripCorpus(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.File, func(t *testing.T) {
			in, err := ParseFile(filepath.Join("testdata", e.File))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var first bytes.Buffer
			if err := Write(&first, in); err != nil {
				t.Fatalf("write: %v", err)
			}
			in2, err := ParseBytes(first.Bytes())
			if err != nil {
				t.Fatalf("re-parse of written output: %v\n%s", err, first.String())
			}
			sameInstance(t, in, in2)
			var second bytes.Buffer
			if err := Write(&second, in2); err != nil {
				t.Fatalf("re-write: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("write→parse→write not a fixpoint:\n--- first ---\n%s--- second ---\n%s",
					first.String(), second.String())
			}
		})
	}
}

// TestRoundTripAwkwardNames exercises the writer's renaming paths:
// duplicate variable names, names with whitespace and '*', an empty
// name, and an objective name colliding with a generated row name.
func TestRoundTripAwkwardNames(t *testing.T) {
	m := milp.NewModel()
	a := m.Int("x y", 0, 3)   // whitespace → sanitized
	b := m.Int("x_y", 0, 3)   // collides with the sanitized a
	c := m.Var("", 0, 5)      // empty → generated
	d := m.Var("s*ar", -2, 2) // comment char → sanitized
	m.Minimize(milp.T(a, 1).Add(b, 2).Add(c, 3).Add(d, 4))
	m.AddLE(milp.Sum(a, b, c, d), 6)
	in := &Instance{Name: "odd names", Model: m, ObjName: "R0000001"}

	var first bytes.Buffer
	if err := Write(&first, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	in2, err := ParseBytes(first.Bytes())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, first.String())
	}
	sameInstance(t, in, in2)
	if in2.ObjName != "OBJ.0" {
		t.Fatalf("objective renamed to %q, want OBJ.0 (collision with row name)", in2.ObjName)
	}
	var second bytes.Buffer
	if err := Write(&second, in2); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("not a fixpoint:\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}
}
