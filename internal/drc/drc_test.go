package drc

import (
	"strings"
	"testing"
	"time"

	"columbas/internal/geom"
	"columbas/internal/layout"
	"columbas/internal/module"
	"columbas/internal/mux"
	"columbas/internal/netlist"
	"columbas/internal/planar"
	"columbas/internal/validate"
)

func design(t *testing.T, src string) *validate.Design {
	t.Helper()
	n, err := netlist.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := planar.Planarize(n)
	if err != nil {
		t.Fatal(err)
	}
	o := layout.DefaultOptions()
	o.TimeLimit = 2 * time.Second
	o.StallLimit = 30
	o.Gap = 0.1
	p, err := layout.Generate(pr, o)
	if err != nil {
		t.Fatal(err)
	}
	d, err := validate.Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const chainSrc = `
design chain
unit m1 mixer
unit c1 chamber
connect in:sample m1
connect m1 c1
connect c1 out:waste
`

func TestCleanDesignPasses(t *testing.T) {
	d := design(t, chainSrc)
	rep := Check(d)
	if !rep.Clean() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %v", v)
		}
	}
	if rep.Checked != 11 {
		t.Fatalf("Checked = %d, want 11", rep.Checked)
	}
}

func TestSwitchDesignPasses(t *testing.T) {
	d := design(t, `
design sw
unit a mixer
unit b mixer sieve
unit c chamber
connect in:x a
connect in:y b
connect b c
net a c out:waste
`)
	rep := Check(d)
	for _, v := range rep.Violations {
		t.Errorf("violation: %v", v)
	}
}

func TestTwoMuxDesignPasses(t *testing.T) {
	d := design(t, `
design two
muxes 2
unit m1 mixer
unit c1 chamber
unit m2 mixer celltrap
unit c2 chamber
connect in:a m1
connect m1 c1
connect c1 out:w1
connect in:b m2
connect m2 c2
connect c2 out:w2
`)
	rep := Check(d)
	for _, v := range rep.Violations {
		t.Errorf("violation: %v", v)
	}
}

func TestDetectsModuleOverlap(t *testing.T) {
	d := design(t, chainSrc)
	// Sabotage: slide c1 onto m1.
	c1 := d.Module("c1")
	m1 := d.Module("m1")
	c1.Translate(m1.Box.XL-c1.Box.XL, m1.Box.YB-c1.Box.YB)
	rep := Check(d)
	if !hasRule(rep, RuleModuleOverlap) {
		t.Fatal("module overlap not detected")
	}
}

func TestDetectsNonHorizontalFlow(t *testing.T) {
	d := design(t, chainSrc)
	d.Flow = append(d.Flow, validate.FlowChannel{
		Name: "diag",
		Seg:  geom.Seg{A: geom.Pt{X: 0, Y: 0}, B: geom.Pt{X: 100, Y: 100}},
	})
	rep := Check(d)
	if !hasRule(rep, RuleFlowHorizontal) {
		t.Fatal("non-horizontal flow channel not detected")
	}
}

func TestDetectsFlowSpacingViolation(t *testing.T) {
	d := design(t, chainSrc)
	base := d.Flow[0].Seg
	d.Flow = append(d.Flow, validate.FlowChannel{
		Name: "tooclose",
		Seg: geom.Seg{
			A: geom.Pt{X: base.A.X, Y: base.A.Y + module.D/2},
			B: geom.Pt{X: base.B.X, Y: base.A.Y + module.D/2},
		},
	})
	rep := Check(d)
	if !hasRule(rep, RuleFlowSpacing) {
		t.Fatal("flow spacing violation not detected")
	}
}

func TestDetectsCtrlOverlap(t *testing.T) {
	d := design(t, chainSrc)
	dup := d.Ctrl[0]
	dup.Name = "dup"
	d.Ctrl = append(d.Ctrl, dup)
	rep := Check(d)
	if !hasRule(rep, RuleCtrlOverlap) {
		t.Fatal("control overlap not detected")
	}
}

func TestDetectsCtrlSpacing(t *testing.T) {
	d := design(t, chainSrc)
	near := d.Ctrl[0]
	near.Name = "near"
	near.X += module.D / 2
	d.Ctrl = append(d.Ctrl, near)
	rep := Check(d)
	if !hasRule(rep, RuleCtrlSpacing) {
		t.Fatal("control spacing violation not detected")
	}
}

func TestDetectsInletPitch(t *testing.T) {
	d := design(t, chainSrc)
	if len(d.Inlets) == 0 {
		t.Fatal("no inlets")
	}
	clone := d.Inlets[0]
	clone.Name = "clone"
	clone.At.Y += module.DPrime / 3
	d.Inlets = append(d.Inlets, clone)
	rep := Check(d)
	if !hasRule(rep, RuleInletPitch) {
		t.Fatal("inlet pitch violation not detected")
	}
}

func TestDetectsConfinement(t *testing.T) {
	d := design(t, chainSrc)
	d.Module("m1").Translate(d.Chip.XR+1000, 0)
	rep := Check(d)
	if !hasRule(rep, RuleConfinement) {
		t.Fatal("confinement violation not detected")
	}
}

func TestDetectsFloatingChannel(t *testing.T) {
	d := design(t, chainSrc)
	// A stub hovering in the MUX region: touches neither a module nor a
	// flow boundary.
	d.Flow = append(d.Flow, validate.FlowChannel{
		Name: "floating",
		Seg: geom.Seg{
			A: geom.Pt{X: d.FuncRegion.XR / 3, Y: -50},
			B: geom.Pt{X: d.FuncRegion.XR / 2, Y: -50},
		},
	})
	rep := Check(d)
	if !hasRule(rep, RuleChannelAccess) {
		t.Fatal("floating channel not detected")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: RuleFlowSpacing, Msg: "too close", At: geom.Pt{X: 1, Y: 2}}
	s := v.String()
	if !strings.Contains(s, "flow-spacing") || !strings.Contains(s, "too close") {
		t.Fatalf("String = %q", s)
	}
}

func hasRule(rep *Report, rule Rule) bool {
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func TestDetectsSwitchGeometryViolation(t *testing.T) {
	d := design(t, `
design swg
unit a mixer
unit b mixer
net a b out:w
connect in:x a
connect in:y b
`)
	sw := d.Module("s1")
	if sw == nil {
		t.Fatal("switch missing")
	}
	// Sabotage: push a junction outside the box.
	sw.Junctions[0].Y = sw.Box.YT + 5000
	rep := Check(d)
	if !hasRule(rep, RuleSwitchGeometry) {
		t.Fatal("out-of-box junction not detected")
	}
}

func TestDetectsPumpPitchViolation(t *testing.T) {
	d := design(t, chainSrc)
	m1 := d.Module("m1")
	// Sabotage: move one pump valve next to another.
	moved := false
	for li := range m1.Lines {
		for vi := range m1.Lines[li].Valves {
			if m1.Lines[li].Valves[vi].Kind == module.ValvePump && !moved {
				m1.Lines[li].Valves[vi].At.X += module.PumpPitch - 50
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no pump valve found")
	}
	rep := Check(d)
	if !hasRule(rep, RulePumpPitch) {
		t.Fatal("pump pitch violation not detected")
	}
}

// A MUX whose valves no longer match its addressing must fail the
// isolation rule: a lost valve lets a neighbouring address open a second
// channel, and a valve moved to the other level's line blocks the very
// channel its address selects.
func TestDetectsMuxIsolationFailure(t *testing.T) {
	sabotage := map[string]func(mx *mux.Mux){
		"lost valve": func(mx *mux.Mux) {
			// Channel 0's bit-0 valve: address 1 differs from it only
			// there, so it opens channel 0 as well.
			for vi, v := range mx.Valves {
				if v.Channel == 0 && mx.Lines[v.Line].Bit == 0 {
					mx.Valves = append(mx.Valves[:vi], mx.Valves[vi+1:]...)
					return
				}
			}
			t.Fatal("channel 0 has no bit-0 valve")
		},
		"valve on the other line": func(mx *mux.Mux) {
			v := &mx.Valves[0]
			ln := mx.Lines[v.Line]
			for li, other := range mx.Lines {
				if other.Bit == ln.Bit && other.Level != ln.Level {
					v.Line, v.At.Y = li, other.Y
					return
				}
			}
			t.Fatal("no line of the other level")
		},
	}
	for name, breakMux := range sabotage {
		d := design(t, chainSrc)
		if hasRule(Check(d), RuleMuxIsolation) {
			t.Fatalf("%s: mux-isolation reported before the sabotage", name)
		}
		if d.MuxBottom == nil || d.MuxBottom.N < 2 {
			t.Fatalf("%s: need a bottom MUX of at least 2 channels", name)
		}
		breakMux(d.MuxBottom)
		if !hasRule(Check(d), RuleMuxIsolation) {
			t.Errorf("%s: isolation failure not detected", name)
		}
	}
}
