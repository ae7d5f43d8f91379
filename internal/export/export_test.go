package export

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"columbas/internal/layout"
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

func TestWriteSCR(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteSCR(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"-LAYER M FLOW", "-LAYER M CONTROL", "-LAYER M VALVE",
		"-LAYER M OUTLINE", "-LAYER M PORT",
		"RECTANG", "PLINE", "CIRCLE",
		`design "chain"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("SCR missing %q", want)
		}
	}
	// One PLINE per flow channel at minimum.
	if got := strings.Count(s, "PLINE"); got < len(d.Flow)+len(d.Ctrl) {
		t.Errorf("PLINE count %d too small", got)
	}
	// One CIRCLE per fluid port.
	if got := strings.Count(s, "CIRCLE"); got != len(d.Inlets) {
		t.Errorf("CIRCLE count %d, want %d", got, len(d.Inlets))
	}
}

func TestWriteSCRDeterministic(t *testing.T) {
	d := design(t, chainSrc)
	var a, b bytes.Buffer
	if err := WriteSCR(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteSCR(&b, d); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("SCR output must be deterministic")
	}
}

func TestWriteSVG(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(strings.TrimSpace(s), "</svg>") {
		t.Fatal("not a well-formed SVG envelope")
	}
	for _, want := range []string{
		"<title>chain</title>",
		"#1e66c8", // flow blue
		"#2e8b57", // control green
		"<circle", "<rect", "<line",
		">sample<", ">waste<",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Balanced tags (self-closing shapes aside): count < and > sanity.
	if strings.Count(s, "<line") < len(d.Flow) {
		t.Error("too few line elements")
	}
}

func TestWriteJSON(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	var out JSONDesign
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out.Name != "chain" || out.Muxes != 1 {
		t.Fatalf("header = %+v", out)
	}
	if out.WidthMM <= 0 || out.HeightMM <= 0 {
		t.Fatal("dimensions must be positive")
	}
	if len(out.Modules) != 2 {
		t.Fatalf("modules = %d", len(out.Modules))
	}
	// Modules sorted by name.
	if out.Modules[0].Name != "c1" || out.Modules[1].Name != "m1" {
		t.Fatalf("modules unsorted: %+v", out.Modules)
	}
	if out.MuxBottom == nil || out.MuxBottom.Channels != 7 {
		t.Fatalf("mux summary = %+v", out.MuxBottom)
	}
	if out.MuxTop != nil {
		t.Fatal("no top MUX expected")
	}
	if out.CtrlIn != 7 {
		t.Fatalf("control inlets = %d", out.CtrlIn)
	}
	if len(out.Channels) != 7 {
		t.Fatalf("channels = %d", len(out.Channels))
	}
}

func TestSVGContainsMuxValves(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#208080") {
		t.Error("MUX valves missing from SVG")
	}
}

func TestWritePlanSVG(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WritePlanSVG(&buf, d.Plan); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") {
		t.Fatal("not an SVG")
	}
	for _, want := range []string{
		"layout generation plan",
		"#2e8b57",      // merged control rects (green, Figure 6(b))
		"#1e66c8",      // merged flow rects (blue)
		">m1<", ">c1<", // placeable labels
	} {
		if !strings.Contains(s, want) {
			t.Errorf("plan SVG missing %q", want)
		}
	}
	// One rect element per plan rect plus the canvas.
	if got := strings.Count(s, "<rect"); got != len(d.Plan.Rects)+1 {
		t.Errorf("rect count = %d, want %d", got, len(d.Plan.Rects)+1)
	}
}

func TestWriteASCII(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteASCII(&buf, d, 100); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"M", "C", "#", "-", "|", "=", "o", "legend:"} {
		if !strings.Contains(s, want) {
			t.Errorf("ASCII raster missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 10 {
		t.Fatalf("raster too small: %d lines", len(lines))
	}
	// Raster rows all share the requested width.
	for i, l := range lines[1 : len(lines)-1] {
		if len(l) != 100 {
			t.Fatalf("row %d width = %d, want 100", i, len(l))
		}
	}
}

func TestWriteASCIIMinWidth(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteASCII(&buf, d, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend") {
		t.Fatal("tiny raster should still render")
	}
}

func TestWriteReport(t *testing.T) {
	d := design(t, chainSrc)
	var buf bytes.Buffer
	if err := WriteReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"# Design datasheet: chain",
		"## Summary",
		"## Modules",
		"## Bottom multiplexer",
		"## Fluid ports",
		"| m1 | mixer |",
		"| c1 | chamber |",
		"| sample | inlet |",
		"| waste | outlet |",
		"control inlets | 7",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// One address row per control channel.
	if got := strings.Count(s, "| m1."); got < 5 {
		t.Errorf("m1 channel rows = %d", got)
	}
	if strings.Contains(s, "## Top multiplexer") {
		t.Error("1-MUX design must not report a top multiplexer")
	}
}

// TestReportEscapesNames renders a netlist whose names carry markup and a
// table separator: no name may reach the markdown as raw HTML, and every
// table row must keep its table's column count.
func TestReportEscapesNames(t *testing.T) {
	d := design(t, `
design a&b<script>alert(1)</script>
unit m|1 mixer
unit c1 chamber
connect in:s<i>&amp m|1
connect m|1 c1
connect c1 out:waste
`)
	var buf bytes.Buffer
	if err := WriteReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Contains(s, "<script") {
		t.Error("report contains a raw <script")
	}
	cols := 0
	for i, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "|") {
			cols = 0 // a table ends at its first non-row line
			continue
		}
		if n := strings.Count(line, "|"); cols == 0 {
			cols = n
		} else if n != cols {
			t.Errorf("line %d has %d cell separators, its table's header %d: %s", i+1, n, cols, line)
		}
	}
	for _, want := range []string{
		"# Design datasheet: a&amp;b&lt;script&gt;alert(1)&lt;/script&gt;\n",
		"| m&#124;1 | mixer |",
		"| m&#124;1.",
		"| s&lt;i&gt;&amp;amp | inlet |",
		"## Bottom multiplexer",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
