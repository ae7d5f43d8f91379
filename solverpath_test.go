// Layout solver path regression: every production layout MILP runs
// without root cuts on the sparse LU engine, and the twelve Table 1
// designs keep the area, L_f and #c_in they reached when root cuts ran
// and small models were routed to the dense inverse (EXPERIMENTS.md,
// "Layout solver path").
package columbas

import (
	"fmt"
	"math"
	"testing"

	"columbas/internal/cases"
	"columbas/internal/core"
)

func TestLayoutSolverPathTable1(t *testing.T) {
	// Quality of the root-cut, dense-for-small-models configuration at
	// Workers=1: area in mm², L_f in mm, #c_in.
	want := map[string]struct {
		area, flow float64
		cin        int
	}{
		"nap6-1":     {339.57, 53.8, 13},
		"nap6-2":     {379.17, 53.8, 20},
		"chip9-1":    {561.66, 71, 13},
		"chip9-2":    {627.9, 71, 22},
		"mrna8-1":    {366.12, 67.2, 13},
		"mrna8-2":    {224.2, 24, 22},
		"kinase21-1": {837.4, 316.4, 13},
		"kinase21-2": {910.6, 165.2, 24},
		"chip64-1":   {12390.56, 2371.8, 17},
		"chip64-2":   {12534.08, 2371.8, 28},
		"chip128-1":  {46913.36, 10064.6, 19},
		"chip128-2":  {47233.12, 10064.6, 32},
	}
	const tol = 1e-3
	for _, c := range cases.Table1() {
		for mx := 1; mx <= 2; mx++ {
			name := fmt.Sprintf("%s-%d", c.ID, mx)
			n, err := c.WithMuxes(mx).Netlist()
			if err != nil {
				t.Fatal(err)
			}
			opt := core.DefaultOptions()
			opt.Layout.Workers = 1
			res, err := core.Synthesize(n, opt)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			se := res.Plan.Stats.Search
			if se.CutRounds != 0 || se.CutsAdded != 0 {
				t.Errorf("%s: root cuts ran on the layout path: %d rounds, %d cuts", name, se.CutRounds, se.CutsAdded)
			}
			// The layout model's only integers are the disjunction
			// binaries, so every branching is a k-way group branch and
			// the variable rule is never consulted.
			if se.Branchings != se.GroupBranches {
				t.Errorf("%s: %d of %d branchings were variable branches",
					name, se.Branchings-se.GroupBranches, se.Branchings)
			}
			if se.SparseRefactorizations != se.Refactorizations {
				t.Errorf("%s: %d of %d refactorizations reported sparse",
					name, se.SparseRefactorizations, se.Refactorizations)
			}
			if !res.DRC.Clean() {
				t.Errorf("%s: design not DRC-clean: %v", name, res.DRC.Violations)
			}
			m, w := res.Metrics(), want[name]
			if area := m.WidthMM * m.HeightMM; math.Abs(area-w.area) > tol {
				t.Errorf("%s: area %.3f mm², want %.2f", name, area, w.area)
			}
			if math.Abs(m.FlowMM-w.flow) > tol {
				t.Errorf("%s: L_f %.3f mm, want %.1f", name, m.FlowMM, w.flow)
			}
			if m.CtrlInlets != w.cin {
				t.Errorf("%s: #c_in %d, want %d", name, m.CtrlInlets, w.cin)
			}
		}
	}
}
