// The scale curve above Table 1: ChIP applications of 513, 1025 and
// 2049 units (8× the paper's largest case) synthesize DRC-clean with a
// proven-optimal layout under the default options, and the final
// layout model grows linearly with the design, not with its number of
// overlapping pairs (EXPERIMENTS.md, "Guided order-row reduction").
package columbas

import (
	"testing"

	"columbas/internal/cases"
	"columbas/internal/core"
	"columbas/internal/milp"
)

func TestScaleCurve(t *testing.T) {
	sizes := []int{256, 512, 1024}
	if testing.Short() {
		sizes = sizes[:2]
	}
	var base int // chip256's final-round rows
	for _, nIP := range sizes {
		c, err := cases.ChIPScale(nIP, nIP/8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Netlist()
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Layout.Workers = 1
		res, err := core.Synthesize(n, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		st := res.Plan.Stats
		if !res.DRC.Clean() {
			t.Errorf("%s: design not DRC-clean: %v", c.ID, res.DRC.Violations)
		}
		if st.Status != milp.Optimal || st.SeedOnly {
			t.Errorf("%s: layout status %v (seed only: %v), want optimal", c.ID, st.Status, st.SeedOnly)
		}
		if nIP == 256 {
			base = st.Rows
		} else if limit := float64(base) * 1.125 * float64(nIP/256); float64(st.Rows) > limit {
			t.Errorf("%s: final round has %d rows, more than %.0f (1.125 × %d/256 × chip256's %d)",
				c.ID, st.Rows, limit, nIP, base)
		}
		t.Logf("%s: %d units, %d rows, %d rounds, %v", c.ID, c.Units, st.Rows, st.Rounds, res.Metrics().Runtime)
	}
}
