package export

import (
	"math"
	"strconv"
	"unicode/utf8"

	"columbas/internal/validate"
)

// appendFixed1 appends x as fmt's "%.1f" (and strconv's 'f', 1) prints
// it, byte for byte. Every coordinate of the geometry writers goes
// through it: on a fixed precision strconv takes its exact big-decimal
// path, which dominated the writers' CPU. Here the exact binary value
// mant·2^exp is scaled by 10 and its shifted-out bits rounded half to
// even, as that path rounds, in one uint64. The sign is kept for -0 and
// for negatives that round to zero ("-0.0"). NaN, ±Inf and |x| ≥ 2^59,
// where mant·10·2^exp no longer fits, fall back to strconv.
func appendFixed1(dst []byte, x float64) []byte {
	bits := math.Float64bits(x)
	exp := int(bits>>52) & 0x7ff
	mant := bits & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		return strconv.AppendFloat(dst, x, 'f', 1, 64)
	case 0: // zero or subnormal
		exp = 1
	default:
		mant |= 1 << 52
	}
	exp -= 1075 // |x| = mant·2^exp
	if exp > 6 {
		return strconv.AppendFloat(dst, x, 'f', 1, 64)
	}
	// q = |x|·10 rounded half to even; mant·10 < 2^57, so q < 2^63.
	q := mant * 10
	if exp >= 0 {
		q <<= uint(exp)
	} else if s := uint(-exp); s < 64 {
		rem := q & (1<<s - 1)
		q >>= s
		if half := uint64(1) << (s - 1); rem > half || rem == half && q&1 == 1 {
			q++
		}
	} else {
		q = 0 // |x|·10 < 2^-7
	}
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/10, 10)
	return append(dst, '.', byte('0'+q%10))
}

// appendText appends s as XML character data: '&', '<' and '>' are
// escaped, and bytes XML cannot carry (control characters, invalid
// UTF-8) become U+FFFD, so a unit or design name cannot inject markup
// into an SVG. Other names are appended unchanged.
func appendText(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != '<' && c != '>' {
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:]) // invalid UTF-8 decodes as U+FFFD
		switch {
		case r == '&':
			dst = append(dst, "&amp;"...)
		case r == '<':
			dst = append(dst, "&lt;"...)
		case r == '>':
			dst = append(dst, "&gt;"...)
		default:
			if !xmlChar(r) {
				r = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, r)
		}
		i += n
	}
	return dst
}

// xmlChar reports whether r is in the XML 1.0 Char production.
func xmlChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// shapes counts the geometry elements a design exports (boxes, segments,
// valves, ports); each writer sizes its buffer from it once.
func shapes(d *validate.Design) int {
	n := 1 + len(d.Flow) + len(d.Ctrl) + len(d.Inlets)
	for _, m := range d.Modules {
		n += 1 + len(m.Flow)
		for _, l := range m.Lines {
			n += len(l.Valves)
		}
	}
	for _, mx := range muxList(d) {
		n += len(mx.Lines) + len(mx.ChannelX) + len(mx.Valves)
	}
	return n
}
