package export

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"columbas/internal/cases"
	"columbas/internal/layout"
	"columbas/internal/planar"
	"columbas/internal/validate"
)

// checkFixed1 fails t unless appendFixed1 prints x exactly as strconv's
// 'f', 1 (which is what fmt's "%.1f" prints).
func checkFixed1(t *testing.T, x float64) bool {
	t.Helper()
	var got, want [40]byte
	g := appendFixed1(got[:0], x)
	w := strconv.AppendFloat(want[:0], x, 'f', 1, 64)
	if !bytes.Equal(g, w) {
		t.Errorf("appendFixed1(%v [%#016x]) = %q, want %q", x, math.Float64bits(x), g, w)
		return false
	}
	return true
}

// TestAppendFixed1MatchesStrconv is the property behind every coordinate
// the geometry writers print: over about 1 M deterministic values —
// random bit patterns, subnormals, values in the range layouts use, exact
// ties k/20 and their neighbours, and the 2^59 fallback edge —
// appendFixed1 equals strconv.AppendFloat(x, 'f', 1, 64) byte for byte.
func TestAppendFixed1MatchesStrconv(t *testing.T) {
	scale := 1
	if testing.Short() {
		scale = 10
	}
	rng := rand.New(rand.NewPCG(18, 1))
	two59 := math.Ldexp(1, 59)
	special := []float64{
		0, math.Copysign(0, -1), 0.05, -0.05, 0.04, -0.04, 0.25, -0.25, 0.35,
		1e-300, -1e-300, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, math.Nextafter(0x1p-1022, 0),
		two59, -two59, math.Nextafter(two59, 0), -math.Nextafter(two59, 0),
		math.Nextafter(two59, math.Inf(1)), two59 - 0.5, two59/10 + 0.5,
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, x := range special {
		checkFixed1(t, x)
	}
	fails := 0
	check := func(x float64) {
		if !checkFixed1(t, x) {
			if fails++; fails > 20 {
				t.FailNow()
			}
		}
	}
	// Any bit pattern: NaNs, infinities, huge values. strconv's exact path
	// is slow on large exponents, so these and the subnormals are fewer.
	for i := 0; i < 100_000/scale; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 50_000/scale; i++ {
		check(math.Float64frombits(rng.Uint64N(1<<52) | rng.Uint64()&(1<<63)))
	}
	// Random mantissa with a binary exponent in [-64, 64): the range
	// coordinates live in, down to the values that round to ±0.0.
	for i := 0; i < 450_000/scale; i++ {
		x := math.Ldexp(1+rng.Float64(), rng.IntN(128)-64)
		if rng.IntN(2) == 0 {
			x = -x
		}
		check(x)
	}
	// Exact ties k/20 and their neighbours: k/20 = (2j+1)/20 is a tie of
	// the rounding step whenever it is exactly representable.
	for i := 0; i < 110_000/scale; i++ {
		tie := float64(rng.Int64N(1<<40)) / 20
		check(tie)
		check(-tie)
		check(math.Nextafter(tie, math.Inf(1)))
		check(math.Nextafter(tie, math.Inf(-1)))
	}
	// Every j/256 in (-4, 4): exact ties with few binary places, and
	// small negatives that print "-0.0".
	for j := 0; j < 4<<8; j++ {
		check(float64(j) / 256)
		check(-float64(j) / 256)
	}
}

// TestAppendFixed1MatchesFmt checks appendFixed1 against fmt itself, on
// ties, signed zeros and NaN/±Inf, whose spelling fmt decides apart from
// strconv.
func TestAppendFixed1MatchesFmt(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), -0.04, 0.05, 0.15, 0.25, 1234.55, -1234.45,
		1e17, math.Ldexp(1, 59), math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		if got, want := string(appendFixed1(nil, x)), fmt.Sprintf("%.1f", x); got != want {
			t.Errorf("appendFixed1(%v) = %q, fmt says %q", x, got, want)
		}
	}
}

// caseDesign synthesizes a Table 1 case with the given multiplexer count
// on the default layout options and one branch-and-bound worker, the
// deterministic configuration of the benchmark.
func caseDesign(tb testing.TB, id string, muxes int) *validate.Design {
	tb.Helper()
	c, err := cases.Get(id)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := c.WithMuxes(muxes).Netlist()
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := planar.Planarize(n)
	if err != nil {
		tb.Fatal(err)
	}
	o := layout.DefaultOptions()
	o.Workers = 1
	p, err := layout.Generate(pr, o)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := validate.Validate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestWritersMatchFmtReference byte-compares the append writers with the
// fmt-based writers they replaced (reference_test.go).
func TestWritersMatchFmtReference(t *testing.T) {
	designs := map[string]*validate.Design{"chain": design(t, chainSrc)}
	if !testing.Short() {
		designs["chip9-1"] = caseDesign(t, "chip9", 1)
		designs["kinase21-2"] = caseDesign(t, "kinase21", 2)
	}
	type writer func(io.Writer, *validate.Design) error
	plan := func(f func(io.Writer, *layout.Plan) error) writer {
		return func(w io.Writer, d *validate.Design) error { return f(w, d.Plan) }
	}
	pairs := []struct {
		name     string
		got, ref writer
	}{
		{"scr", WriteSCR, refWriteSCR},
		{"svg", WriteSVG, refWriteSVG},
		{"dxf", WriteDXF, refWriteDXF},
		{"plan", plan(WritePlanSVG), plan(refWritePlanSVG)},
	}
	for name, d := range designs {
		for _, p := range pairs {
			var got, want bytes.Buffer
			if err := p.got(&got, d); err != nil {
				t.Fatal(err)
			}
			if err := p.ref(&want, d); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %s: %d bytes differ from the fmt reference's %d at byte %d",
					name, p.name, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// hostileSrc names the design, a unit and a port with markup; the netlist
// parser accepts any token without spaces or '#'.
const hostileSrc = `
design a&b<script>alert(1)</script>
unit m<b>1 mixer
unit c1 chamber
connect in:s<i>&amp m<b>1
connect m<b>1 c1
connect c1 out:waste
`

// TestSVGEscapesNames renders a netlist whose names carry markup: both
// SVG writers must produce well-formed XML with no injected element, and
// the names must decode back unchanged.
func TestSVGEscapesNames(t *testing.T) {
	d := design(t, hostileSrc)
	for _, r := range []struct {
		name  string
		write func(io.Writer) error
		texts []string
	}{
		{"svg", func(w io.Writer) error { return WriteSVG(w, d) },
			[]string{"a&b<script>alert(1)</script>", "s<i>&amp", "waste"}},
		{"plan", func(w io.Writer) error { return WritePlanSVG(w, d.Plan) },
			[]string{"a&b<script>alert(1)</script> — layout generation plan", "m<b>1", "c1"}},
	} {
		var buf bytes.Buffer
		if err := r.write(&buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf.Bytes(), []byte("<script")) {
			t.Errorf("%s: output contains a <script element", r.name)
		}
		texts, err := xmlTexts(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: not well-formed XML: %v", r.name, err)
		}
		for _, want := range r.texts {
			if !texts[want] {
				t.Errorf("%s: no element carries the text %q (have %v)", r.name, want, texts)
			}
		}
	}
}

// xmlTexts decodes doc as XML, fails on any element outside the SVG
// vocabulary the writers use, and returns the set of character data.
func xmlTexts(doc []byte) (map[string]bool, error) {
	texts := map[string]bool{}
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return texts, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			switch tok.Name.Local {
			case "svg", "title", "rect", "line", "circle", "text":
			default:
				return nil, fmt.Errorf("unexpected element <%s>", tok.Name.Local)
			}
		case xml.CharData:
			if s := strings.TrimSpace(string(tok)); s != "" {
				texts[s] = true
			}
		}
	}
}

// TestAppendText covers the escaping rules on their own: markup escaped,
// bytes XML cannot carry replaced, everything else unchanged.
func TestAppendText(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"chip9", "chip9"},
		{"a&b", "a&amp;b"},
		{"<x>", "&lt;x&gt;"},
		{`q"'`, `q"'`},
		{"µm—ü", "µm—ü"},
		{"a\x01b", "a\uFFFDb"},
		{"bad\xffutf8", "bad\uFFFDutf8"},
		{"\uFFFE", "\uFFFD"},
	} {
		got := string(appendText(nil, c.in))
		if got != c.want {
			t.Errorf("appendText(%q) = %q, want %q", c.in, got, c.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("appendText(%q) is not valid UTF-8", c.in)
		}
	}
}

// The geometry writers on a small and a large design; run with -benchmem
// (go test -run '^$' -bench 'BenchmarkWrite' -benchmem ./internal/export/).
func BenchmarkWriteSCR(b *testing.B) { benchWriter(b, WriteSCR) }

func BenchmarkWriteSVG(b *testing.B) { benchWriter(b, WriteSVG) }

func benchWriter(b *testing.B, write func(io.Writer, *validate.Design) error) {
	for _, c := range []struct {
		id    string
		muxes int
	}{{"chip9", 1}, {"chip64", 1}} {
		d := caseDesign(b, c.id, c.muxes)
		b.Run(fmt.Sprintf("%s-%d", c.id, c.muxes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := write(io.Discard, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
