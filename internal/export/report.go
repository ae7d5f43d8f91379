package export

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"columbas/internal/geom"
	"columbas/internal/module"
	"columbas/internal/mux"
	"columbas/internal/validate"
)

// WriteReport writes a markdown datasheet for a completed design: the
// Table 1 metrics, the module inventory, the control-channel map with
// multiplexer addresses, and the fluid ports. This is the human-readable
// companion to the fabrication outputs — what a wet-lab collaborator
// needs to operate the chip.
func WriteReport(w io.Writer, d *validate.Design) error {
	b := &strings.Builder{}
	fmt.Fprintf(b, "# Design datasheet: %s\n\n", mdText(d.Name))

	fmt.Fprintf(b, "## Summary\n\n")
	fmt.Fprintf(b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(b, "| chip dimensions | %.2f × %.2f mm |\n", geom.MM(d.Chip.W()), geom.MM(d.Chip.H()))
	fmt.Fprintf(b, "| functional region | %.2f × %.2f mm |\n",
		geom.MM(d.FuncRegion.W()), geom.MM(d.FuncRegion.H()))
	fmt.Fprintf(b, "| flow channel length | %.2f mm |\n", geom.MM(d.FlowLength()))
	fmt.Fprintf(b, "| modules | %d |\n", len(d.Modules))
	fmt.Fprintf(b, "| control channels | %d |\n", len(d.Ctrl))
	fmt.Fprintf(b, "| control inlets | %d |\n", d.ControlInlets())
	fmt.Fprintf(b, "| fluid ports | %d |\n", len(d.Inlets))
	fmt.Fprintf(b, "| multiplexers | %d |\n\n", d.Muxes)

	fmt.Fprintf(b, "## Modules\n\n")
	fmt.Fprintf(b, "| name | kind | position (µm) | size (µm) | control lines | valves |\n|---|---|---|---|---|---|\n")
	mods := append([]*module.Instance(nil), d.Modules...)
	sort.Slice(mods, func(i, j int) bool { return mods[i].Name < mods[j].Name })
	for _, m := range mods {
		kind := m.Kind.String()
		if m.Kind == module.KindMixer && m.Opt.String() != "plain" {
			kind += " (" + m.Opt.String() + ")"
		}
		fmt.Fprintf(b, "| %s | %s | (%.0f, %.0f) | %.0f × %.0f | %d | %d |\n",
			mdText(m.Name), kind, m.Box.XL, m.Box.YB, m.Box.W(), m.Box.H(),
			len(m.Lines), len(m.Valves()))
	}
	b.WriteString("\n")

	writeMux := func(label string, mx *mux.Mux, chans []validate.CtrlChannel) {
		if mx == nil {
			return
		}
		fmt.Fprintf(b, "## %s multiplexer\n\n", label)
		fmt.Fprintf(b, "%d channels, %d address bits, %d pressure inlets (2·⌈log₂ n⌉+1), %d MUX valves.\n\n",
			mx.N, mx.Bits, mx.Inlets(), len(mx.Valves))
		fmt.Fprintf(b, "| address | binary | pair config | channel | actuates |\n|---|---|---|---|---|\n")
		byIdx := map[int]validate.CtrlChannel{}
		for _, c := range chans {
			byIdx[c.MuxIndex] = c
		}
		width := mx.Bits
		if width == 0 {
			width = 1
		}
		for a := 0; a < mx.N; a++ {
			sel, err := mx.Select(a)
			if err != nil {
				continue
			}
			ch := byIdx[a]
			fmt.Fprintf(b, "| %d | %0*b | %s | %s | %s |\n",
				a, width, a, mx.PairString(sel), mdText(ch.Name), mdText(ch.Owner))
		}
		b.WriteString("\n")
	}
	var bottom, top []validate.CtrlChannel
	for _, c := range d.Ctrl {
		if c.Top {
			top = append(top, c)
		} else {
			bottom = append(bottom, c)
		}
	}
	writeMux("Bottom", d.MuxBottom, bottom)
	writeMux("Top", d.MuxTop, top)

	fmt.Fprintf(b, "## Fluid ports\n\n")
	fmt.Fprintf(b, "| name | direction | boundary | position (µm) |\n|---|---|---|---|\n")
	ports := append([]validate.Inlet(nil), d.Inlets...)
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].Name != ports[j].Name {
			return ports[i].Name < ports[j].Name
		}
		return ports[i].At.Y < ports[j].At.Y
	})
	for _, in := range ports {
		dir := "outlet"
		if in.Inlet {
			dir = "inlet"
		}
		side := "left"
		if in.At.X > d.FuncRegion.XR/2 {
			side = "right"
		}
		fmt.Fprintf(b, "| %s | %s | %s | (%.0f, %.0f) |\n", mdText(in.Name), dir, side, in.At.X, in.At.Y)
	}
	b.WriteString("\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// mdText escapes a netlist name for the report: '&', '<' and '>' become
// HTML entities, so no name reaches a markdown renderer as markup, and
// '|' becomes "&#124;", so no name splits a table cell.
var mdText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "|", "&#124;").Replace
