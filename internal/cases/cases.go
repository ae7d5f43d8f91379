package cases

import (
	"fmt"
	"strings"

	"columbas/internal/netlist"
)

// Case is one evaluation application.
type Case struct {
	// ID is the short name used throughout the benchmarks.
	ID string
	// Ref is the paper's citation for the application.
	Ref string
	// Units is the functional-unit count (#u in Table 1).
	Units int
	// Source is the netlist description text.
	Source string
	// InPaper reports whether Columba 2.0 results exist for this case in
	// Table 1 (the two synthetic cases were S-only because 2.0 could not
	// solve them).
	InPaper bool
}

// Netlist parses the case's netlist description.
func (c Case) Netlist() (*netlist.Netlist, error) {
	n, err := netlist.ParseString(c.Source)
	if err != nil {
		return nil, fmt.Errorf("cases: %s: %w", c.ID, err)
	}
	if got := n.NumUnits(); got != c.Units {
		return nil, fmt.Errorf("cases: %s has %d units, expected %d", c.ID, got, c.Units)
	}
	return n, nil
}

// WithMuxes returns a copy of the case with the multiplexer count
// overridden (Table 1 reports 1-MUX and 2-MUX variants of each design).
func (c Case) WithMuxes(m int) Case {
	src := c.Source
	if strings.Contains(src, "muxes ") {
		lines := strings.Split(src, "\n")
		for i, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "muxes ") {
				lines[i] = fmt.Sprintf("muxes %d", m)
			}
		}
		src = strings.Join(lines, "\n")
	} else {
		src = strings.Replace(src, "\n", fmt.Sprintf("\nmuxes %d\n", m), 1)
	}
	c.Source = src
	return c
}

// NAP6 is the nucleic-acid processor of Hong et al. [8]: 6 units — two
// sieve-mixer/chamber purification lanes plus two standalone mixers, all
// collected through one switch.
func NAP6() Case {
	return Case{
		ID: "nap6", Ref: "[8] nucleic-acid processor", Units: 6, InPaper: true,
		Source: `design nap6
muxes 1
unit m1 mixer sieve
unit c1 chamber
unit m2 mixer sieve
unit c2 chamber
unit m3 mixer
unit m4 mixer
connect in:lysate1 m1
connect m1 c1
connect in:lysate2 m2
connect m2 c2
connect in:buffer1 m3
connect in:buffer2 m4
net c1 c2 m3 m4 out:product
`,
	}
}

// ChIP9 is the automated chromatin-immunoprecipitation chip of Wu et al.
// [3] (ChIP 4-IP): four independent IP lanes (sieve mixer + wash chamber)
// and a collection mixer behind a switch. The lanes run different
// antibodies, so their control is independent (no parallel merging).
func ChIP9() Case {
	return Case{
		ID: "chip9", Ref: "[3] ChIP 4-IP", Units: 9, InPaper: true,
		Source: `design chip9
muxes 1
unit m1 mixer sieve
unit c1 chamber
unit m2 mixer sieve
unit c2 chamber
unit m3 mixer sieve
unit c3 chamber
unit m4 mixer sieve
unit c4 chamber
unit col mixer
connect in:chromatin1 m1
connect m1 c1
connect in:chromatin2 m2
connect m2 c2
connect in:chromatin3 m3
connect m3 c3
connect in:chromatin4 m4
connect m4 c4
net c1 c2 c3 c4 col out:waste
connect col out:collect
`,
	}
}

// MRNA8 is the single-cell mRNA isolation chip of Marcus et al. [7]:
// four independent capture lanes of a cell-trap mixer followed by an
// elution chamber.
func MRNA8() Case {
	return Case{
		ID: "mrna8", Ref: "[7] mRNA isolation", Units: 8, InPaper: true,
		Source: `design mrna8
muxes 1
unit m1 mixer celltrap
unit c1 chamber
unit m2 mixer celltrap
unit c2 chamber
unit m3 mixer celltrap
unit c3 chamber
unit m4 mixer celltrap
unit c4 chamber
connect in:cells1 m1
connect m1 c1
connect c1 out:cdna1
connect in:cells2 m2
connect m2 c2
connect c2 out:cdna2
connect in:cells3 m3
connect m3 c3
connect c3 out:cdna3
connect in:cells4 m4
connect m4 c4
connect c4 out:cdna4
`,
	}
}

// Kinase21 is the kinase-activity radioassay of Fang et al. [17], the
// Columba 2.0 test case [12] shown in Figure 1: seven independent assay
// lanes of a mixer followed by two reaction chambers (21 units).
func Kinase21() Case {
	var b strings.Builder
	b.WriteString("design kinase21\nmuxes 1\n")
	for i := 1; i <= 7; i++ {
		fmt.Fprintf(&b, "unit m%d mixer\nunit ca%d chamber\nunit cb%d chamber\n", i, i, i)
	}
	for i := 1; i <= 7; i++ {
		fmt.Fprintf(&b, "connect in:sample%d m%d\n", i, i)
		fmt.Fprintf(&b, "connect m%d ca%d\n", i, i)
		fmt.Fprintf(&b, "connect ca%d cb%d\n", i, i)
		fmt.Fprintf(&b, "connect cb%d out:read%d\n", i, i)
	}
	return Case{
		ID: "kinase21", Ref: "[12]/[17] kinase activity", Units: 21, InPaper: true,
		Source: b.String(),
	}
}

// Kinase21Parallel is a variant of the kinase case with all seven lanes
// in one parallel group (shared control). It is not a Table 1 row: the
// paper's kinase design reports 13 control inlets, which requires
// independent lanes (63 channels), while its Figure 6(b) shows merged
// rectangles. This variant exists to quantify that tension — merging
// shrinks the flow length dramatically at the cost of per-lane control
// independence (see EXPERIMENTS.md, kinase21 L_f note).
func Kinase21Parallel() Case {
	c := Kinase21()
	c.ID = "kinase21p"
	var group strings.Builder
	group.WriteString("parallel")
	for i := 1; i <= 7; i++ {
		fmt.Fprintf(&group, " m%d ca%d cb%d", i, i, i)
	}
	c.Source += group.String() + "\n"
	c.InPaper = false
	return c
}

// ChIPScale generates the synthetic large-scale ChIP applications of
// Table 1 (based on [3]): nIP immunoprecipitation lanes divided into
// parallel-execution groups (Figure 7(d): ChIP64 runs 8 groups), plus a
// collection mixer. Each group's lanes share their control channels.
func ChIPScale(nIP, groups int) (Case, error) {
	if nIP <= 0 || groups <= 0 || nIP%groups != 0 {
		return Case{}, fmt.Errorf("cases: invalid ChIP configuration %d/%d", nIP, groups)
	}
	perGroup := nIP / groups
	var b strings.Builder
	fmt.Fprintf(&b, "design chip%d\nmuxes 1\n", nIP)
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			i := g*perGroup + k + 1
			fmt.Fprintf(&b, "unit m%d mixer sieve\nunit c%d chamber\n", i, i)
		}
	}
	b.WriteString("unit col mixer\n")
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			i := g*perGroup + k + 1
			fmt.Fprintf(&b, "connect in:ab%d m%d\n", g+1, i)
			fmt.Fprintf(&b, "connect m%d c%d\n", i, i)
		}
	}
	// All chamber outputs, the collector and the waste share one switch.
	b.WriteString("net")
	for i := 1; i <= nIP; i++ {
		fmt.Fprintf(&b, " c%d", i)
	}
	b.WriteString(" col out:waste\n")
	b.WriteString("connect col out:collect\n")
	for g := 0; g < groups; g++ {
		b.WriteString("parallel")
		for k := 0; k < perGroup; k++ {
			i := g*perGroup + k + 1
			fmt.Fprintf(&b, " m%d c%d", i, i)
		}
		b.WriteString("\n")
	}
	return Case{
		ID:      fmt.Sprintf("chip%d", nIP),
		Ref:     fmt.Sprintf("synthetic ChIP %d-IP based on [3]", nIP),
		Units:   2*nIP + 1,
		Source:  b.String(),
		InPaper: false,
	}, nil
}

// ChIP16 is a mid-scale synthetic ChIP application: 33 units in 4
// parallel groups. It sits between chip9 and chip64 and is the reference
// case for the warm-start benchmarks (make bench-warmstart).
func ChIP16() Case {
	c, err := ChIPScale(16, 4)
	if err != nil {
		panic(err)
	}
	return c
}

// ChIP64 is the fifth Table 1 case: 129 units in 8 parallel groups.
func ChIP64() Case {
	c, err := ChIPScale(64, 8)
	if err != nil {
		panic(err)
	}
	return c
}

// ChIP128 is the sixth Table 1 case: 257 units in 16 parallel groups.
func ChIP128() Case {
	c, err := ChIPScale(128, 16)
	if err != nil {
		panic(err)
	}
	return c
}

// ChIP256 is the scaling-curve extension beyond Table 1: 513 units in 32
// parallel groups. Its layout model is roughly double chip128's (the LP
// dimension grows with the group count, since each group's lanes merge
// into one block rectangle). It is the base point of the scale-curve
// test (TestScaleCurve, on through chip1024) and of perfbench's scale
// workload.
func ChIP256() Case {
	c, err := ChIPScale(256, 32)
	if err != nil {
		panic(err)
	}
	return c
}

// Table1 returns the six evaluation cases in the paper's row order.
func Table1() []Case {
	return []Case{NAP6(), ChIP9(), MRNA8(), Kinase21(), ChIP64(), ChIP128()}
}

// Get returns the case with the given ID — a Table 1 row or one of the
// extra synthetic sizes (chip16, chip256).
func Get(id string) (Case, error) {
	for _, c := range append(Table1(), ChIP16(), ChIP256()) {
		if c.ID == id {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("cases: unknown case %q", id)
}
