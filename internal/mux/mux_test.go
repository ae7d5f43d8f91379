package mux

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"columbas/internal/module"
)

func channels(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 2 * module.D
	}
	return xs
}

func TestInletsFormula(t *testing.T) {
	// 2·ceil(log2 n)+1 (Section 2.2).
	cases := map[int]int{
		1: 1, 2: 3, 3: 5, 4: 5, 5: 7, 8: 7, 9: 9, 15: 9, 16: 9,
		17: 11, 32: 11, 33: 13, 63: 13, 64: 13, 65: 15, 128: 15, 129: 17, 256: 17,
	}
	for n, want := range cases {
		if got := InletsFor(n); got != want {
			t.Errorf("InletsFor(%d) = %d, want %d", n, got, want)
		}
	}
	if InletsFor(0) != 0 {
		t.Error("InletsFor(0) should be 0")
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, true, 0); err == nil {
		t.Fatal("expected error for empty channel set")
	}
}

func TestFigure4FifteenChannels(t *testing.T) {
	// The paper's example: 15 control channels, 4-bit addressing, channel
	// 9 (binary 1001) selected by configuration XO OX OX XO.
	m, err := Build(channels(15), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bits != 4 {
		t.Fatalf("Bits = %d, want 4", m.Bits)
	}
	if m.Inlets() != 9 {
		t.Fatalf("Inlets = %d, want 2*4+1", m.Inlets())
	}
	if len(m.Lines) != 2*4+1 {
		t.Fatalf("lines = %d, want 9", len(m.Lines))
	}
	s, err := m.Select(9)
	if err != nil {
		t.Fatal(err)
	}
	open := m.Open(s)
	if len(open) != 1 || open[0] != 9 {
		t.Fatalf("Open = %v, want [9]", open)
	}
	// Bit pattern: bit0 of 9 is 1 -> pair shows XO (block0 pressurised);
	// bit1 = 0 -> OX; bit2 = 0 -> OX; bit3 = 1 -> XO.
	if got := m.BitString(s); got != "XOOXOXXO" {
		t.Fatalf("BitString = %q, want XOOXOXXO", got)
	}
}

func TestEveryAddressSelectsExactlyItsChannel(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 15, 16, 31, 64} {
		m, err := Build(channels(n), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n; c++ {
			s, err := m.Select(c)
			if err != nil {
				t.Fatal(err)
			}
			open := m.Open(s)
			if len(open) != 1 || open[0] != c {
				t.Fatalf("n=%d: Select(%d) opens %v", n, c, open)
			}
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	m, err := Build(channels(4), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Select(-1); err == nil {
		t.Error("Select(-1) should fail")
	}
	if _, err := m.Select(4); err == nil {
		t.Error("Select(4) should fail")
	}
}

func TestSingleChannelMux(t *testing.T) {
	// n=1: zero bits, only the pressure main; the channel is always open.
	m, err := Build(channels(1), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bits != 0 || m.Inlets() != 1 {
		t.Fatalf("Bits=%d Inlets=%d", m.Bits, m.Inlets())
	}
	s, err := m.Select(0)
	if err != nil {
		t.Fatal(err)
	}
	if open := m.Open(s); len(open) != 1 {
		t.Fatalf("Open = %v", open)
	}
}

func TestBottomMuxGeometry(t *testing.T) {
	m, err := Build(channels(8), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All lines strictly below the boundary, 2d pitch, main furthest.
	prev := 0.0
	for _, ln := range m.Lines {
		if ln.Y >= 0 {
			t.Fatalf("line %s at y=%v, want < 0", ln.Name, ln.Y)
		}
		if ln.Y >= prev {
			t.Fatalf("lines must march downward: %v then %v", prev, ln.Y)
		}
		if math.Abs((prev-ln.Y)-2*module.D) > 1e-9 {
			t.Fatalf("line pitch %v != 2d", prev-ln.Y)
		}
		prev = ln.Y
	}
	if m.Lines[m.Main].Bit != -1 {
		t.Fatal("last line must be the pressure main")
	}
	if m.ChannelY1 != m.Lines[m.Main].Y {
		t.Fatal("control channels must extend to the main")
	}
	// Box covers lines and channels.
	for _, ln := range m.Lines {
		if ln.Y < m.Box.YB || ln.Y > m.Box.YT {
			t.Fatalf("line %v outside box %v", ln.Y, m.Box)
		}
	}
}

func TestTopMuxGeometry(t *testing.T) {
	m, err := Build(channels(4), false, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range m.Lines {
		if ln.Y <= 5000 {
			t.Fatalf("top MUX line at y=%v, want > boundary", ln.Y)
		}
	}
}

func TestValvePlacementMatchesAddressing(t *testing.T) {
	m, err := Build(channels(6), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Valves {
		ln := m.Lines[v.Line]
		if ln.Bit < 0 {
			t.Fatal("no valves on the pressure main")
		}
		if (v.Channel>>uint(ln.Bit))&1 != ln.Level {
			t.Fatalf("valve on channel %d line %s contradicts addressing", v.Channel, ln.Name)
		}
		if v.At.X != m.ChannelX[v.Channel] || v.At.Y != ln.Y {
			t.Fatalf("valve at %v not on crossing", v.At)
		}
	}
	// Each channel has exactly Bits valves (one per bit).
	count := map[int]int{}
	for _, v := range m.Valves {
		count[v.Channel]++
	}
	for c := 0; c < m.N; c++ {
		if count[c] != m.Bits {
			t.Fatalf("channel %d has %d valves, want %d", c, count[c], m.Bits)
		}
	}
}

func TestBitStringNotation(t *testing.T) {
	m, err := Build(channels(2), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.Select(0) // bit0=0: pressurise block1 line -> OX
	if got := m.BitString(s); got != "OX" {
		t.Fatalf("BitString(0) = %q, want OX", got)
	}
	s, _ = m.Select(1)
	if got := m.BitString(s); got != "XO" {
		t.Fatalf("BitString(1) = %q, want XO", got)
	}
	if strings.ContainsAny(m.BitString(s), " \n") {
		t.Fatal("bit string must be compact")
	}
}

// Property: for random channel counts and addresses, the selected channel
// is open, all others blocked, and the inlet count follows the formula.
func TestSelectionProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw)%60 + 1
		c := int(cRaw) % n
		m, err := Build(channels(n), true, 0)
		if err != nil {
			return false
		}
		s, err := m.Select(c)
		if err != nil {
			return false
		}
		open := m.Open(s)
		return len(open) == 1 && open[0] == c && m.Inlets() == InletsFor(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Open must answer exactly what Blocked answers channel by channel, for
// any pressurisation state — not only the ones Select produces — and a
// valve on a channel outside [0, N) must block nothing.
func TestOpenMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 200; it++ {
		m, err := Build(channels(1+rng.Intn(300)), it%2 == 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if it%3 == 0 {
			stray := m.Valves[rng.Intn(len(m.Valves))]
			stray.Channel = m.N + rng.Intn(4)
			if it%2 == 0 {
				stray.Channel = -1 - rng.Intn(4)
			}
			m.Valves = append(m.Valves, stray)
		}
		s := Selection{Pressurized: make([]bool, len(m.Lines))}
		density := rng.Float64()
		for li := range s.Pressurized {
			s.Pressurized[li] = rng.Float64() < density
		}
		var want []int
		for c := 0; c < m.N; c++ {
			if !m.Blocked(c, s) {
				want = append(want, c)
			}
		}
		if got := m.Open(s); !slices.Equal(got, want) {
			t.Fatalf("N=%d, pressurized %v: Open = %v, want %v", m.N, s.Pressurized, got, want)
		}
	}
}

func TestPairString(t *testing.T) {
	m, err := Build(channels(15), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.Select(9)
	if got := m.PairString(s); got != "XO OX OX XO" {
		t.Fatalf("PairString = %q, want the Figure 4 configuration", got)
	}
}

func TestAddressTable(t *testing.T) {
	m, err := Build(channels(4), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := m.AddressTable()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4", len(lines))
	}
	if !strings.Contains(lines[3], "11") {
		t.Fatalf("last row should show binary 11: %q", lines[3])
	}
}
