package export

import (
	"io"
	"strconv"

	"columbas/internal/geom"
	"columbas/internal/module"
	"columbas/internal/validate"
)

// WriteDXF writes the design as a minimal ASCII DXF (R12 subset) with the
// same layer structure as the SCR output. DXF is the interchange format
// most mask-layout tool chains accept alongside raw AutoCAD scripts, so
// both are provided for the paper's "directly exported for mask
// fabrication" step (Section 3.3). Geometry uses LINE entities for
// channels and closed LWPOLYLINE-equivalent 4-line loops for boxes;
// coordinates are micrometres.
func WriteDXF(w io.Writer, d *validate.Design) error {
	b := make([]byte, 0, 512+192*shapes(d))

	// Header.
	b = dxfTag(b, 0, "SECTION")
	b = dxfTag(b, 2, "HEADER")
	b = dxfTag(b, 9, "$ACADVER")
	b = dxfTag(b, 1, "AC1009")
	b = dxfTag(b, 0, "ENDSEC")

	// Layer table.
	b = dxfTag(b, 0, "SECTION")
	b = dxfTag(b, 2, "TABLES")
	b = dxfTag(b, 0, "TABLE")
	b = dxfTag(b, 2, "LAYER")
	b = dxfTag(b, 70, "5")
	for i, name := range []string{LayerOutline, LayerFlow, LayerControl, LayerValve, LayerPort} {
		b = dxfTag(b, 0, "LAYER")
		b = dxfTag(b, 2, name)
		b = dxfTag(b, 70, "0")
		b = dxfTag(b, 62, strconv.Itoa(i+1)) // colour index
		b = dxfTag(b, 6, "CONTINUOUS")
	}
	b = dxfTag(b, 0, "ENDTAB")
	b = dxfTag(b, 0, "ENDSEC")

	// Entities.
	b = dxfTag(b, 0, "SECTION")
	b = dxfTag(b, 2, "ENTITIES")
	b = dxfBox(b, LayerOutline, d.Chip)
	for _, m := range d.Modules {
		b = dxfBox(b, LayerOutline, m.Box)
	}
	for _, f := range d.Flow {
		b = dxfLine(b, LayerFlow, f.Seg.A, f.Seg.B)
	}
	for _, m := range d.Modules {
		for _, s := range m.Flow {
			b = dxfLine(b, LayerFlow, s.A, s.B)
		}
	}
	for _, mx := range muxList(d) {
		for _, ln := range mx.Lines {
			b = dxfLine(b, LayerFlow, ln.Seg.A, ln.Seg.B)
		}
		for _, cx := range mx.ChannelX {
			b = dxfLine(b, LayerControl,
				geom.Pt{X: cx, Y: mx.ChannelY0},
				geom.Pt{X: cx, Y: mx.ChannelY1})
		}
	}
	for _, c := range d.Ctrl {
		s := ctrlSeg(d, c)
		b = dxfLine(b, LayerControl, s.A, s.B)
	}
	for _, m := range d.Modules {
		for _, l := range m.Lines {
			for _, v := range l.Valves {
				b = dxfBox(b, LayerValve, valveBox(v.At))
			}
		}
	}
	for _, mx := range muxList(d) {
		for _, v := range mx.Valves {
			b = dxfBox(b, LayerValve, valveBox(v.At))
		}
	}
	for _, in := range d.Inlets {
		b = dxfTag(b, 0, "CIRCLE")
		b = dxfTag(b, 8, LayerPort)
		b = dxfCoord(b, 10, in.At.X)
		b = dxfCoord(b, 20, in.At.Y)
		b = dxfCoord(b, 40, module.DPrime/3)
	}
	b = dxfTag(b, 0, "ENDSEC")
	b = dxfTag(b, 0, "EOF")
	_, err := w.Write(b)
	return err
}

// dxfTag appends one group: the code line, then the value line.
func dxfTag(b []byte, code int, val string) []byte {
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, '\n')
	b = append(b, val...)
	return append(b, '\n')
}

// dxfCoord appends one group whose value is a coordinate.
func dxfCoord(b []byte, code int, v float64) []byte {
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, '\n')
	b = appendFixed1(b, v)
	return append(b, '\n')
}

func dxfLine(b []byte, layer string, a, c geom.Pt) []byte {
	b = dxfTag(b, 0, "LINE")
	b = dxfTag(b, 8, layer)
	b = dxfCoord(b, 10, a.X)
	b = dxfCoord(b, 20, a.Y)
	b = dxfCoord(b, 11, c.X)
	return dxfCoord(b, 21, c.Y)
}

// dxfBox appends a box as a closed loop of four LINEs.
func dxfBox(b []byte, layer string, r geom.Rect) []byte {
	corners := [4]geom.Pt{
		{X: r.XL, Y: r.YB}, {X: r.XR, Y: r.YB},
		{X: r.XR, Y: r.YT}, {X: r.XL, Y: r.YT},
	}
	for i := range corners {
		b = dxfLine(b, layer, corners[i], corners[(i+1)%4])
	}
	return b
}
