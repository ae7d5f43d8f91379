package export

import (
	"fmt"
	"io"
	"strings"

	"columbas/internal/geom"
	"columbas/internal/layout"
	"columbas/internal/module"
	"columbas/internal/validate"
)

// The fmt-based SCR, SVG, DXF and plan writers the append writers
// replaced, kept verbatim (renamed, ref- prefix) as the byte-identity
// reference: every "%.1f" here must come out of appendFixed1 unchanged.
// They print names raw, so compare them only on names without '&', '<'
// or '>'.

func refWriteSCR(w io.Writer, d *validate.Design) error {
	b := &strings.Builder{}
	fmt.Fprintf(b, "; Columba S design %q — AutoCAD script\n", d.Name)
	fmt.Fprintf(b, "; chip %.0f x %.0f um, %d module(s), %d control channel(s)\n",
		d.Chip.W(), d.Chip.H(), len(d.Modules), len(d.Ctrl))
	layer := func(name string) { fmt.Fprintf(b, "-LAYER M %s\n\n", name) }

	layer(LayerOutline)
	refRect(b, d.Chip)
	for _, m := range d.Modules {
		refRect(b, m.Box)
	}

	layer(LayerFlow)
	for _, f := range d.Flow {
		refLine(b, f.Seg)
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			refLine(b, s)
		}
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			refLine(b, ln.Seg)
		}
	}

	layer(LayerControl)
	for _, c := range d.Ctrl {
		refLine(b, ctrlSeg(d, c))
	}

	layer(LayerValve)
	for _, m := range d.Modules {
		for _, v := range m.Valves() {
			refValveRect(b, v.At)
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			refValveRect(b, v.At)
		}
	}

	layer(LayerPort)
	for _, in := range d.Inlets {
		fmt.Fprintf(b, "CIRCLE %.1f,%.1f %.1f\n", in.At.X, in.At.Y, module.DPrime/3)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func refRect(b *strings.Builder, r geom.Rect) {
	fmt.Fprintf(b, "RECTANG %.1f,%.1f %.1f,%.1f\n", r.XL, r.YB, r.XR, r.YT)
}

func refLine(b *strings.Builder, s geom.Seg) {
	fmt.Fprintf(b, "PLINE %.1f,%.1f %.1f,%.1f \n", s.A.X, s.A.Y, s.B.X, s.B.Y)
}

func refValveRect(b *strings.Builder, p geom.Pt) {
	h := module.ValveSize / 2
	fmt.Fprintf(b, "RECTANG %.1f,%.1f %.1f,%.1f\n", p.X-h, p.Y-h, p.X+h, p.Y+h)
}

func refWriteSVG(w io.Writer, d *validate.Design) error {
	// SVG y grows downward; flip around the chip box.
	flip := func(y float64) float64 { return d.Chip.YT - y + 0 }
	scale := 0.1 // 10 µm per SVG unit keeps files small
	W := d.Chip.W() * scale
	H := d.Chip.H() * scale
	x := func(v float64) float64 { return (v - d.Chip.XL) * scale }
	y := func(v float64) float64 { return (flip(v) - 0) * scale }

	b := &strings.Builder{}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.1f %.1f">`+"\n", W, H, W, H)
	fmt.Fprintf(b, `<title>%s</title>`+"\n", d.Name)
	fmt.Fprintf(b, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="white" stroke="black" stroke-width="0.5"/>`+"\n", W, H)

	seg := func(s geom.Seg, color string, sw float64) {
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
			x(s.A.X), y(s.A.Y), x(s.B.X), y(s.B.Y), color, sw)
	}
	box := func(r geom.Rect, stroke, fill string) {
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" stroke="%s" fill="%s" stroke-width="0.4"/>`+"\n",
			x(r.XL), y(r.YT), r.W()*scale, r.H()*scale, stroke, fill)
	}

	for _, m := range d.Modules {
		box(m.Box, "#999999", "none")
	}
	for _, c := range d.Ctrl {
		seg(ctrlSeg(d, c), "#2e8b57", module.ChannelW*scale)
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			seg(ln.Seg, "#1e66c8", module.ChannelW*scale)
		}
		// Control-channel extensions through the MUX region.
		for _, cx := range mx.ChannelX {
			seg(geom.Seg{
				A: geom.Pt{X: cx, Y: mx.ChannelY0},
				B: geom.Pt{X: cx, Y: mx.ChannelY1},
			}, "#2e8b57", module.ChannelW*scale)
		}
	}
	for _, f := range d.Flow {
		seg(f.Seg, "#1e66c8", module.ChannelW*scale)
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			seg(s, "#1e66c8", module.ChannelW*scale)
		}
	}
	valveColor := map[module.ValveKind]string{
		module.ValveRegular:    "#e07020",
		module.ValvePump:       "#8040c0",
		module.ValveSieve:      "#107040",
		module.ValveSeparation: "#c02060",
		module.ValveMux:        "#208080",
	}
	valve := func(p geom.Pt, k module.ValveKind) {
		h := module.ValveSize / 2 * scale
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			x(p.X)-h, y(p.Y)-h, 2*h, 2*h, valveColor[k])
	}
	for _, m := range d.Modules {
		for _, v := range m.Valves() {
			valve(v.At, v.Kind)
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			valve(v.At, module.ValveMux)
		}
	}
	for _, in := range d.Inlets {
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#1e66c8" stroke-width="0.6"/>`+"\n",
			x(in.At.X), y(in.At.Y), module.DPrime/3*scale)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="8" fill="#333">%s</text>`+"\n",
			x(in.At.X)+3, y(in.At.Y)-3, in.Name)
	}
	fmt.Fprintln(b, "</svg>")
	_, err := io.WriteString(w, b.String())
	return err
}

func refWriteDXF(w io.Writer, d *validate.Design) error {
	b := &strings.Builder{}
	wr := func(code int, val string) { fmt.Fprintf(b, "%d\n%s\n", code, val) }

	// Header.
	wr(0, "SECTION")
	wr(2, "HEADER")
	wr(9, "$ACADVER")
	wr(1, "AC1009")
	wr(0, "ENDSEC")

	// Layer table.
	wr(0, "SECTION")
	wr(2, "TABLES")
	wr(0, "TABLE")
	wr(2, "LAYER")
	wr(70, "5")
	for i, name := range []string{LayerOutline, LayerFlow, LayerControl, LayerValve, LayerPort} {
		wr(0, "LAYER")
		wr(2, name)
		wr(70, "0")
		wr(62, fmt.Sprintf("%d", i+1)) // colour index
		wr(6, "CONTINUOUS")
	}
	wr(0, "ENDTAB")
	wr(0, "ENDSEC")

	// Entities.
	wr(0, "SECTION")
	wr(2, "ENTITIES")
	line := func(layer string, a, c geom.Pt) {
		wr(0, "LINE")
		wr(8, layer)
		wr(10, fmt.Sprintf("%.1f", a.X))
		wr(20, fmt.Sprintf("%.1f", a.Y))
		wr(11, fmt.Sprintf("%.1f", c.X))
		wr(21, fmt.Sprintf("%.1f", c.Y))
	}
	box := func(layer string, r geom.Rect) {
		corners := []geom.Pt{
			{X: r.XL, Y: r.YB}, {X: r.XR, Y: r.YB},
			{X: r.XR, Y: r.YT}, {X: r.XL, Y: r.YT},
		}
		for i := range corners {
			line(layer, corners[i], corners[(i+1)%4])
		}
	}
	circle := func(layer string, p geom.Pt, radius float64) {
		wr(0, "CIRCLE")
		wr(8, layer)
		wr(10, fmt.Sprintf("%.1f", p.X))
		wr(20, fmt.Sprintf("%.1f", p.Y))
		wr(40, fmt.Sprintf("%.1f", radius))
	}

	box(LayerOutline, d.Chip)
	for _, m := range d.Modules {
		box(LayerOutline, m.Box)
	}
	for _, f := range d.Flow {
		line(LayerFlow, f.Seg.A, f.Seg.B)
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			line(LayerFlow, s.A, s.B)
		}
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			line(LayerFlow, ln.Seg.A, ln.Seg.B)
		}
		for _, cx := range mx.ChannelX {
			line(LayerControl,
				geom.Pt{X: cx, Y: mx.ChannelY0},
				geom.Pt{X: cx, Y: mx.ChannelY1})
		}
	}
	for _, c := range d.Ctrl {
		s := ctrlSeg(d, c)
		line(LayerControl, s.A, s.B)
	}
	vb := func(p geom.Pt) {
		h := module.ValveSize / 2
		box(LayerValve, geom.Rect{XL: p.X - h, XR: p.X + h, YB: p.Y - h, YT: p.Y + h})
	}
	for _, m := range d.Modules {
		for _, v := range m.Valves() {
			vb(v.At)
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			vb(v.At)
		}
	}
	for _, in := range d.Inlets {
		circle(LayerPort, in.At, module.DPrime/3)
	}
	wr(0, "ENDSEC")
	wr(0, "EOF")
	_, err := io.WriteString(w, b.String())
	return err
}

func refWritePlanSVG(w io.Writer, p *layout.Plan) error {
	const scale = 0.1
	W := p.XMax * scale
	H := p.YMax * scale
	x := func(v float64) float64 { return v * scale }
	y := func(v float64) float64 { return (p.YMax - v) * scale }

	b := &strings.Builder{}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.1f %.1f">`+"\n", W, H, W, H)
	fmt.Fprintf(b, `<title>%s — layout generation plan</title>`+"\n", p.Name)
	fmt.Fprintf(b, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="white" stroke="black" stroke-width="0.6"/>`+"\n", W, H)

	// Paint channels first so the placeables' outlines stay visible.
	order := []layout.RectKind{layout.RCtrl, layout.RFlow, layout.RBlock, layout.RSwitch}
	style := map[layout.RectKind][2]string{
		layout.RCtrl:   {"#2e8b57", "#b9e4cd"},
		layout.RFlow:   {"#1e66c8", "#bcd5f5"},
		layout.RBlock:  {"#444444", "#eeeeee"},
		layout.RSwitch: {"#444444", "#dddddd"},
	}
	for _, kind := range order {
		for _, r := range p.Rects {
			if r.Kind != kind {
				continue
			}
			st := style[kind]
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" stroke="%s" fill="%s" fill-opacity="0.8" stroke-width="0.5"/>`+"\n",
				x(r.Box.XL), y(r.Box.YT), r.Box.W()*scale, r.Box.H()*scale, st[0], st[1])
			if r.Placeable() {
				fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="7" fill="#333">%s</text>`+"\n",
					x(r.Box.XL)+1, y(r.Box.YT)+8, r.Name)
			}
		}
	}
	fmt.Fprintln(b, "</svg>")
	_, err := io.WriteString(w, b.String())
	return err
}
