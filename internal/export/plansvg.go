package export

import (
	"io"

	"columbas/internal/layout"
)

// WritePlanSVG renders the layout-generation phase's merged rectangles in
// the style of the paper's Figure 6(b): blue rectangles are merged flow
// channels, green rectangles merged control channels, grey boxes the
// placeable block/switch rectangles. This is the intermediate artifact
// between the two synthesis phases (Section 3.2), useful for inspecting
// what the MILP actually decided before restoration.
func WritePlanSVG(w io.Writer, p *layout.Plan) error {
	const scale = 0.1
	W := p.XMax * scale
	H := p.YMax * scale
	x := func(v float64) float64 { return v * scale }
	y := func(v float64) float64 { return (p.YMax - v) * scale }

	b := make([]byte, 0, 512+len(p.Name)+176*len(p.Rects))
	b = svgOpen(b, W, H)
	b = append(b, "<title>"...)
	b = appendText(b, p.Name)
	b = append(b, " — layout generation plan</title>\n"...)
	b = svgCanvas(b, W, H, "0.6")

	// Paint channels first so the placeables' outlines stay visible.
	order := []layout.RectKind{layout.RCtrl, layout.RFlow, layout.RBlock, layout.RSwitch}
	style := map[layout.RectKind]string{
		layout.RCtrl:   ` stroke="#2e8b57" fill="#b9e4cd"`,
		layout.RFlow:   ` stroke="#1e66c8" fill="#bcd5f5"`,
		layout.RBlock:  ` stroke="#444444" fill="#eeeeee"`,
		layout.RSwitch: ` stroke="#444444" fill="#dddddd"`,
	}
	for _, kind := range order {
		for _, r := range p.Rects {
			if r.Kind != kind {
				continue
			}
			b = svgRect(b, x(r.Box.XL), y(r.Box.YT), r.Box.W()*scale, r.Box.H()*scale)
			b = append(b, style[kind]...)
			b = append(b, ` fill-opacity="0.8" stroke-width="0.5"/>`+"\n"...)
			if r.Placeable() {
				b = svgText(b, x(r.Box.XL)+1, y(r.Box.YT)+8, "7", r.Name)
			}
		}
	}
	b = append(b, "</svg>\n"...)
	_, err := w.Write(b)
	return err
}
