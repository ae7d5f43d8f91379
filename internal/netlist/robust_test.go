package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Deeply nested / long inputs stay linear.
func TestParserLargeInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("design big\n")
	for i := 0; i < 2000; i++ {
		b.WriteString("unit u")
		b.WriteString(itoa(i))
		b.WriteString(" chamber\n")
	}
	for i := 0; i < 2000; i++ {
		b.WriteString("connect in:x")
		b.WriteString(itoa(i))
		b.WriteString(" u")
		b.WriteString(itoa(i))
		b.WriteString("\n")
	}
	n, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if n.NumUnits() != 2000 {
		t.Fatalf("units = %d", n.NumUnits())
	}
}

// TestParseLongLineTyped: a line past bufio's token limit is a
// ParseError on that line, not a bare scanner error.
func TestParseLongLineTyped(t *testing.T) {
	var b strings.Builder
	b.WriteString("design long\nunit m1 mixer\nnet m1")
	for b.Len() < 90_000 {
		b.WriteString(" in:x")
	}
	b.WriteString("\nconnect m1 out:w\n")
	_, err := ParseString(b.String())
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 3 {
		t.Fatalf("line %d, want 3 (the long net line)", pe.Line)
	}
	if !strings.Contains(pe.Msg, fmt.Sprint(bufio.MaxScanTokenSize)) {
		t.Fatalf("msg %q does not name the %d-byte limit", pe.Msg, bufio.MaxScanTokenSize)
	}
}

// TestParseValidateMiBLinear parses and validates a connected netlist
// just under the daemon's 1 MiB body cap: 30 000 units in blocks of
// eight, each block one net chained to the previous block and one
// parallel group. Parse and Validate are linear, so this takes tens of
// milliseconds; name lookups by linear scan took seconds on inputs this
// size.
func TestParseValidateMiBLinear(t *testing.T) {
	const units, block = 30_000, 8
	var b strings.Builder
	b.WriteString("design mib\n")
	for i := 0; i < units; i++ {
		fmt.Fprintf(&b, "unit u%d mixer\n", i)
	}
	for k := 0; k < units; k += block {
		if k == 0 {
			b.WriteString("net in:x")
		} else {
			fmt.Fprintf(&b, "net u%d", k-1)
		}
		for i := k; i < k+block; i++ {
			fmt.Fprintf(&b, " u%d", i)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "connect u%d out:w\n", units-1)
	for k := 0; k < units; k += block {
		b.WriteString("parallel")
		for i := k; i < k+block; i++ {
			fmt.Fprintf(&b, " u%d", i)
		}
		b.WriteByte('\n')
	}
	src := b.String()
	if len(src) > 1<<20 || len(src) < 900_000 {
		t.Fatalf("fixture is %d bytes, want just under 1 MiB", len(src))
	}
	start := time.Now()
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("parse+validate of %d bytes took %v, want well under 2 s", len(src), el)
	}
	if n.NumUnits() != units || len(n.Parallel) != units/block {
		t.Fatalf("%d units, %d groups", n.NumUnits(), len(n.Parallel))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
