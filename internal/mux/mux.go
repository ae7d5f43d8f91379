package mux

import (
	"fmt"
	"math"

	"columbas/internal/geom"
	"columbas/internal/module"
)

// FlowLine is one horizontal MUX-flow channel.
type FlowLine struct {
	Name string
	Y    float64
	// Bit is the address bit this line belongs to; -1 for the pressure
	// main.
	Bit int
	// Level is the bit value whose channels this line blocks when
	// pressurised (valves sit on channels whose Bit-th bit == Level).
	Level int
	Seg   geom.Seg
}

// Valve is a MUX valve at the crossing of a flow line and a control
// channel.
type Valve struct {
	Channel int // controlled channel index
	Line    int // index into FlowLines
	At      geom.Pt
}

// Mux is a synthesized multiplexer.
type Mux struct {
	N      int  // number of controlled channels
	Bits   int  // ceil(log2 N)
	Bottom bool // below (true) or above (false) the functional region

	// ChannelX are the x positions of the controlled channels, in the
	// order they were handed to Build (index = channel address).
	ChannelX []float64
	// Extension of each control channel through the MUX region: from the
	// functional-region boundary to the pressure main.
	ChannelY0, ChannelY1 float64

	Lines  []FlowLine
	Valves []Valve
	Main   int // index of the pressure-main line in Lines

	Box geom.Rect // occupied region
}

// InletsFor returns the paper's inlet formula 2·ceil(log2 n)+1 for one
// multiplexer controlling n channels (0 for an empty multiplexer).
func InletsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return 2*bitsFor(n) + 1
}

func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Build synthesizes a multiplexer for control channels at the given x
// positions. boundaryY is the y coordinate of the MUX boundary of the
// functional region (0 for the bottom boundary, y_max for the top);
// bottom selects the growth direction.
func Build(channelX []float64, bottom bool, boundaryY float64) (*Mux, error) {
	n := len(channelX)
	if n == 0 {
		return nil, fmt.Errorf("mux: no control channels to multiplex")
	}
	m := &Mux{
		N:        n,
		Bits:     bitsFor(n),
		Bottom:   bottom,
		ChannelX: append([]float64(nil), channelX...),
	}
	dir := -1.0
	if !bottom {
		dir = 1.0
	}
	xlo, xhi := channelX[0], channelX[0]
	for _, x := range channelX {
		xlo = math.Min(xlo, x)
		xhi = math.Max(xhi, x)
	}
	xlo -= 4 * module.D
	xhi += 4 * module.D

	// 2·Bits addressing lines then the pressure main, marching away from
	// the functional region at 2d pitch.
	row := 0
	addLine := func(name string, bit, level int) {
		row++
		y := boundaryY + dir*float64(row)*2*module.D
		m.Lines = append(m.Lines, FlowLine{
			Name: name, Y: y, Bit: bit, Level: level,
			Seg: geom.Seg{A: geom.Pt{X: xlo, Y: y}, B: geom.Pt{X: xhi, Y: y}},
		})
	}
	for b := 0; b < m.Bits; b++ {
		addLine(fmt.Sprintf("bit%d:block0", b), b, 0)
		addLine(fmt.Sprintf("bit%d:block1", b), b, 1)
	}
	addLine("main", -1, 0)
	m.Main = len(m.Lines) - 1

	// Control channels extend from the boundary through every line to the
	// main.
	mainY := m.Lines[m.Main].Y
	m.ChannelY0 = boundaryY
	m.ChannelY1 = mainY

	// Valves: line (bit b, level v) crosses every channel; a valve sits
	// where the channel's address bit b equals v, so each bit's two lines
	// carry exactly one valve per channel. The slice is sized exactly: a
	// design keeps its MUX for as long as it is cached or served.
	m.Valves = make([]Valve, 0, m.Bits*n)
	for li, ln := range m.Lines {
		if ln.Bit < 0 {
			continue
		}
		for ci := range channelX {
			if (ci>>uint(ln.Bit))&1 == ln.Level {
				m.Valves = append(m.Valves, Valve{
					Channel: ci,
					Line:    li,
					At:      geom.Pt{X: channelX[ci], Y: ln.Y},
				})
			}
		}
	}
	ylo := math.Min(boundaryY, mainY+dir*2*module.D)
	yhi := math.Max(boundaryY, mainY+dir*2*module.D)
	m.Box = geom.Rect{XL: xlo, XR: xhi, YB: ylo, YT: yhi}
	return m, nil
}

// Inlets returns the number of pressure inlets this multiplexer needs.
func (m *Mux) Inlets() int { return 2*m.Bits + 1 }

// Selection is a pressurisation state of the MUX-flow lines.
type Selection struct {
	// Pressurized[i] reports whether Lines[i] is pressurised.
	Pressurized []bool
	// Channel is the selected channel address.
	Channel int
}

// Select returns the line configuration that leaves exactly channel c
// open: for every bit, pressurise the line blocking the opposite value.
func (m *Mux) Select(c int) (Selection, error) {
	if c < 0 || c >= m.N {
		return Selection{}, fmt.Errorf("mux: channel %d out of range [0,%d)", c, m.N)
	}
	s := Selection{Pressurized: make([]bool, len(m.Lines)), Channel: c}
	for li, ln := range m.Lines {
		if ln.Bit < 0 {
			s.Pressurized[li] = true // the main is always pressurised
			continue
		}
		bit := (c >> uint(ln.Bit)) & 1
		if ln.Level != bit {
			s.Pressurized[li] = true
		}
	}
	return s, nil
}

// Blocked reports whether control channel c is blocked under the
// selection: some pressurised line carries a valve on c.
func (m *Mux) Blocked(c int, s Selection) bool {
	for _, v := range m.Valves {
		if v.Channel == c && s.Pressurized[v.Line] {
			return true
		}
	}
	return false
}

// Open returns the channels that can transmit pressure under s, every c
// with !Blocked(c, s), found in one pass over the valves rather than one
// per channel. A valve on a channel outside [0, N) blocks nothing.
func (m *Mux) Open(s Selection) []int {
	blocked := make([]bool, m.N)
	for _, v := range m.Valves {
		if v.Channel >= 0 && v.Channel < m.N && s.Pressurized[v.Line] {
			blocked[v.Channel] = true
		}
	}
	var out []int
	for c, bl := range blocked {
		if !bl {
			out = append(out, c)
		}
	}
	return out
}

// PairString renders a selection as the paper's pair notation
// ("XO OX OX XO" in Figure 4): one two-character group per address bit.
func (m *Mux) PairString(s Selection) string {
	bits := m.BitString(s)
	var b []byte
	for i := 0; i < len(bits); i += 2 {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, bits[i], bits[i+1])
	}
	return string(b)
}

// AddressTable renders the full addressing function: one row per control
// channel with its binary index and the pair configuration selecting it —
// the table Figure 4 illustrates.
func (m *Mux) AddressTable() string {
	var b []byte
	width := m.Bits
	if width == 0 {
		width = 1
	}
	for c := 0; c < m.N; c++ {
		s, err := m.Select(c)
		if err != nil {
			continue
		}
		b = append(b, fmt.Sprintf("%3d  %0*b  %s\n", c, width, c, m.PairString(s))...)
	}
	return string(b)
}

// BitString renders a selection as the paper's O/X notation per line
// (X = pressurised/inflated, O = open), addressing lines only.
func (m *Mux) BitString(s Selection) string {
	out := make([]byte, 0, len(m.Lines))
	for li, ln := range m.Lines {
		if ln.Bit < 0 {
			continue
		}
		if s.Pressurized[li] {
			out = append(out, 'X')
		} else {
			out = append(out, 'O')
		}
	}
	return string(out)
}
