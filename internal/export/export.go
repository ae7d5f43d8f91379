package export

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"columbas/internal/geom"
	"columbas/internal/module"
	"columbas/internal/mux"
	"columbas/internal/validate"
)

// layer names used in both the SCR and SVG outputs.
const (
	LayerFlow    = "FLOW"
	LayerControl = "CONTROL"
	LayerValve   = "VALVE"
	LayerOutline = "OUTLINE"
	LayerPort    = "PORT"
)

// WriteSCR writes an AutoCAD script that draws the design's two layers:
// flow geometry as polylines on FLOW, control channels on CONTROL, valves
// as rectangles on VALVE, module outlines on OUTLINE and fluid ports as
// circles on PORT. Coordinates are micrometres, printed as "%.1f" by
// appendFixed1.
func WriteSCR(w io.Writer, d *validate.Design) error {
	b := make([]byte, 0, 256+len(d.Name)+48*shapes(d))
	b = append(b, "; Columba S design "...)
	b = strconv.AppendQuote(b, d.Name)
	b = append(b, " — AutoCAD script\n; chip "...)
	b = strconv.AppendFloat(b, d.Chip.W(), 'f', 0, 64)
	b = append(b, " x "...)
	b = strconv.AppendFloat(b, d.Chip.H(), 'f', 0, 64)
	b = append(b, " um, "...)
	b = strconv.AppendInt(b, int64(len(d.Modules)), 10)
	b = append(b, " module(s), "...)
	b = strconv.AppendInt(b, int64(len(d.Ctrl)), 10)
	b = append(b, " control channel(s)\n"...)

	b = scrLayer(b, LayerOutline)
	b = scrRect(b, d.Chip)
	for _, m := range d.Modules {
		b = scrRect(b, m.Box)
	}

	b = scrLayer(b, LayerFlow)
	for _, f := range d.Flow {
		b = scrLine(b, f.Seg)
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			b = scrLine(b, s)
		}
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			b = scrLine(b, ln.Seg)
		}
	}

	b = scrLayer(b, LayerControl)
	for _, c := range d.Ctrl {
		b = scrLine(b, ctrlSeg(d, c))
	}

	b = scrLayer(b, LayerValve)
	for _, m := range d.Modules {
		// m.Valves() would allocate a slice per module; walk its lines.
		for _, l := range m.Lines {
			for _, v := range l.Valves {
				b = scrRect(b, valveBox(v.At))
			}
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			b = scrRect(b, valveBox(v.At))
		}
	}

	b = scrLayer(b, LayerPort)
	for _, in := range d.Inlets {
		b = append(b, "CIRCLE "...)
		b = appendXY(b, in.At)
		b = append(b, ' ')
		b = appendFixed1(b, module.DPrime/3)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

func scrLayer(b []byte, name string) []byte {
	b = append(b, "-LAYER M "...)
	b = append(b, name...)
	return append(b, "\n\n"...)
}

func scrRect(b []byte, r geom.Rect) []byte {
	b = append(b, "RECTANG "...)
	b = appendXY(b, geom.Pt{X: r.XL, Y: r.YB})
	b = append(b, ' ')
	b = appendXY(b, geom.Pt{X: r.XR, Y: r.YT})
	return append(b, '\n')
}

func scrLine(b []byte, s geom.Seg) []byte {
	b = append(b, "PLINE "...)
	b = appendXY(b, s.A)
	b = append(b, ' ')
	b = appendXY(b, s.B)
	return append(b, " \n"...)
}

// appendXY appends a point as "x,y".
func appendXY(b []byte, p geom.Pt) []byte {
	b = appendFixed1(b, p.X)
	b = append(b, ',')
	return appendFixed1(b, p.Y)
}

// valveBox is the square footprint of a valve centred at p.
func valveBox(p geom.Pt) geom.Rect {
	h := module.ValveSize / 2
	return geom.Rect{XL: p.X - h, YB: p.Y - h, XR: p.X + h, YT: p.Y + h}
}

// ctrlSeg materialises a control channel as a vertical segment from its
// farthest valve to (and through) its multiplexer region.
func ctrlSeg(d *validate.Design, c validate.CtrlChannel) geom.Seg {
	y0 := c.YValve
	var y1 float64
	if c.Top {
		if d.MuxTop != nil {
			y1 = d.MuxTop.ChannelY1
		} else {
			y1 = d.FuncRegion.YT
		}
	} else {
		if d.MuxBottom != nil {
			y1 = d.MuxBottom.ChannelY1
		} else {
			y1 = 0
		}
	}
	return geom.Seg{A: geom.Pt{X: c.X, Y: y0}, B: geom.Pt{X: c.X, Y: y1}}
}

func muxList(d *validate.Design) []*mux.Mux {
	var out []*mux.Mux
	if d.MuxBottom != nil {
		out = append(out, d.MuxBottom)
	}
	if d.MuxTop != nil {
		out = append(out, d.MuxTop)
	}
	return out
}

// WriteSVG renders the design as an SVG in the style of the paper's
// figures: flow channels blue, control channels green, valves as filled
// rectangles, modules as grey outlines, fluid ports as circles. Names are
// escaped as XML text (appendText).
func WriteSVG(w io.Writer, d *validate.Design) error {
	// SVG y grows downward; flip around the chip box.
	flip := func(y float64) float64 { return d.Chip.YT - y + 0 }
	scale := 0.1 // 10 µm per SVG unit keeps files small
	W := d.Chip.W() * scale
	H := d.Chip.H() * scale
	x := func(v float64) float64 { return (v - d.Chip.XL) * scale }
	y := func(v float64) float64 { return (flip(v) - 0) * scale }

	b := make([]byte, 0, 512+len(d.Name)+96*shapes(d))
	b = svgOpen(b, W, H)
	b = append(b, "<title>"...)
	b = appendText(b, d.Name)
	b = append(b, "</title>\n"...)
	b = svgCanvas(b, W, H, "0.5")

	sw := module.ChannelW * scale
	seg := func(b []byte, s geom.Seg, color string) []byte {
		return svgLine(b, x(s.A.X), y(s.A.Y), x(s.B.X), y(s.B.Y), color, sw)
	}
	for _, m := range d.Modules {
		b = svgRect(b, x(m.Box.XL), y(m.Box.YT), m.Box.W()*scale, m.Box.H()*scale)
		b = append(b, ` stroke="#999999" fill="none" stroke-width="0.4"/>`+"\n"...)
	}
	for _, c := range d.Ctrl {
		b = seg(b, ctrlSeg(d, c), "#2e8b57")
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			b = seg(b, ln.Seg, "#1e66c8")
		}
		// Control-channel extensions through the MUX region.
		for _, cx := range mx.ChannelX {
			b = seg(b, geom.Seg{
				A: geom.Pt{X: cx, Y: mx.ChannelY0},
				B: geom.Pt{X: cx, Y: mx.ChannelY1},
			}, "#2e8b57")
		}
	}
	for _, f := range d.Flow {
		b = seg(b, f.Seg, "#1e66c8")
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			b = seg(b, s, "#1e66c8")
		}
	}
	h := module.ValveSize / 2 * scale
	valve := func(b []byte, p geom.Pt, k module.ValveKind) []byte {
		b = svgRect(b, x(p.X)-h, y(p.Y)-h, 2*h, 2*h)
		b = append(b, ` fill="`...)
		b = append(b, valveColor(k)...)
		return append(b, "\"/>\n"...)
	}
	for _, m := range d.Modules {
		for _, l := range m.Lines {
			for _, v := range l.Valves {
				b = valve(b, v.At, v.Kind)
			}
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			b = valve(b, v.At, module.ValveMux)
		}
	}
	for _, in := range d.Inlets {
		b = append(b, `<circle cx="`...)
		b = appendFixed1(b, x(in.At.X))
		b = append(b, `" cy="`...)
		b = appendFixed1(b, y(in.At.Y))
		b = append(b, `" r="`...)
		b = appendFixed1(b, module.DPrime/3*scale)
		b = append(b, `" fill="none" stroke="#1e66c8" stroke-width="0.6"/>`+"\n"...)
		b = svgText(b, x(in.At.X)+3, y(in.At.Y)-3, "8", in.Name)
	}
	b = append(b, "</svg>\n"...)
	_, err := w.Write(b)
	return err
}

func valveColor(k module.ValveKind) string {
	switch k {
	case module.ValveRegular:
		return "#e07020"
	case module.ValvePump:
		return "#8040c0"
	case module.ValveSieve:
		return "#107040"
	case module.ValveSeparation:
		return "#c02060"
	case module.ValveMux:
		return "#208080"
	}
	return ""
}

// svgOpen appends the <svg> root of a w×h drawing.
func svgOpen(b []byte, w, h float64) []byte {
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = strconv.AppendFloat(b, w, 'f', 0, 64)
	b = append(b, `" height="`...)
	b = strconv.AppendFloat(b, h, 'f', 0, 64)
	b = append(b, `" viewBox="0 0 `...)
	b = appendFixed1(b, w)
	b = append(b, ' ')
	b = appendFixed1(b, h)
	return append(b, "\">\n"...)
}

// svgCanvas appends the white w×h background with a black border of
// the given stroke width.
func svgCanvas(b []byte, w, h float64, stroke string) []byte {
	b = append(b, `<rect x="0" y="0" width="`...)
	b = appendFixed1(b, w)
	b = append(b, `" height="`...)
	b = appendFixed1(b, h)
	b = append(b, `" fill="white" stroke="black" stroke-width="`...)
	b = append(b, stroke...)
	return append(b, "\"/>\n"...)
}

// svgRect appends an open <rect x y width height; the caller adds the
// style attributes and closes the tag.
func svgRect(b []byte, x, y, w, h float64) []byte {
	b = append(b, `<rect x="`...)
	b = appendFixed1(b, x)
	b = append(b, `" y="`...)
	b = appendFixed1(b, y)
	b = append(b, `" width="`...)
	b = appendFixed1(b, w)
	b = append(b, `" height="`...)
	b = appendFixed1(b, h)
	return append(b, '"')
}

func svgLine(b []byte, x1, y1, x2, y2 float64, color string, width float64) []byte {
	b = append(b, `<line x1="`...)
	b = appendFixed1(b, x1)
	b = append(b, `" y1="`...)
	b = appendFixed1(b, y1)
	b = append(b, `" x2="`...)
	b = appendFixed1(b, x2)
	b = append(b, `" y2="`...)
	b = appendFixed1(b, y2)
	b = append(b, `" stroke="`...)
	b = append(b, color...)
	b = append(b, `" stroke-width="`...)
	b = appendFixed1(b, width)
	return append(b, "\"/>\n"...)
}

// svgText appends a dark-grey label s at (x, y).
func svgText(b []byte, x, y float64, size, s string) []byte {
	b = append(b, `<text x="`...)
	b = appendFixed1(b, x)
	b = append(b, `" y="`...)
	b = appendFixed1(b, y)
	b = append(b, `" font-size="`...)
	b = append(b, size...)
	b = append(b, `" fill="#333">`...)
	b = appendText(b, s)
	return append(b, "</text>\n"...)
}

// JSONDesign is the serialisable summary of a design.
type JSONDesign struct {
	Name      string        `json:"name"`
	Muxes     int           `json:"muxes"`
	WidthMM   float64       `json:"width_mm"`
	HeightMM  float64       `json:"height_mm"`
	FlowMM    float64       `json:"flow_channel_length_mm"`
	CtrlIn    int           `json:"control_inlets"`
	FluidIO   int           `json:"fluid_ports"`
	Modules   []JSONModule  `json:"modules"`
	Channels  []JSONChannel `json:"control_channels"`
	MuxBottom *JSONMux      `json:"mux_bottom,omitempty"`
	MuxTop    *JSONMux      `json:"mux_top,omitempty"`
}

// JSONModule summarises one placed module.
type JSONModule struct {
	Name string    `json:"name"`
	Kind string    `json:"kind"`
	Box  []float64 `json:"box_um"` // xl, yb, xr, yt
}

// JSONChannel summarises one control channel.
type JSONChannel struct {
	Name     string  `json:"name"`
	X        float64 `json:"x_um"`
	Top      bool    `json:"top"`
	MuxIndex int     `json:"mux_index"`
}

// JSONMux summarises one multiplexer.
type JSONMux struct {
	Channels int `json:"channels"`
	Bits     int `json:"bits"`
	Inlets   int `json:"inlets"`
	Valves   int `json:"valves"`
}

// WriteJSON writes the design summary as indented JSON.
func WriteJSON(w io.Writer, d *validate.Design) error {
	out := JSONDesign{
		Name:     d.Name,
		Muxes:    d.Muxes,
		WidthMM:  geom.MM(d.Chip.W()),
		HeightMM: geom.MM(d.Chip.H()),
		FlowMM:   geom.MM(d.FlowLength()),
		CtrlIn:   d.ControlInlets(),
		FluidIO:  len(d.Inlets),
	}
	for _, m := range d.Modules {
		out.Modules = append(out.Modules, JSONModule{
			Name: m.Name,
			Kind: m.Kind.String(),
			Box:  []float64{m.Box.XL, m.Box.YB, m.Box.XR, m.Box.YT},
		})
	}
	sort.Slice(out.Modules, func(i, j int) bool { return out.Modules[i].Name < out.Modules[j].Name })
	for _, c := range d.Ctrl {
		out.Channels = append(out.Channels, JSONChannel{
			Name: c.Name, X: c.X, Top: c.Top, MuxIndex: c.MuxIndex,
		})
	}
	jm := func(m *mux.Mux) *JSONMux {
		if m == nil {
			return nil
		}
		return &JSONMux{Channels: m.N, Bits: m.Bits, Inlets: m.Inlets(), Valves: len(m.Valves)}
	}
	out.MuxBottom = jm(d.MuxBottom)
	out.MuxTop = jm(d.MuxTop)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
