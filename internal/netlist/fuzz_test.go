package netlist_test

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"columbas/internal/cases"
	"columbas/internal/netlist"
)

// FuzzParseNetlist checks the parser's contract on arbitrary text: it
// never panics, every error it returns is a *netlist.ParseError, and
// every netlist it accepts formats to text that parses again.
func FuzzParseNetlist(f *testing.F) {
	for _, c := range cases.Table1() {
		f.Add(c.Source)
	}
	if src, err := os.ReadFile("../../examples/chip/chip.netlist"); err == nil {
		f.Add(string(src))
	}
	// The mistakes a netlist generator makes.
	for _, s := range []string{
		"design d\nunit m1 pump\nconnect in:a m1\n",
		"design d\nunit m1 mixer\nconnect in:a m2\n",
		"design d\nunit m1 mixer\nnet in:a m1 c9\n",
		"design d\nunit m1 mixer\nunit m1 chamber\n",
		"design d\nunit m1 mixer\nparallel m1 m2\n",
		"design d\nunit m1 mixer\nunit m2 mixer\nunit m3 mixer\nparallel m1 m2\nparallel m2 m3\n",
		"design d\nunit m1 mixer\nconnect in: m1\n",
		"design d\nunit m1 mixer\nconnect m1 out:\n",
	} {
		f.Add(s)
	}
	f.Add("design d\nunit m1 mixer\nnet m1" + strings.Repeat(" in:x", 14000) + "\n")
	// Token soup over the grammar's vocabulary.
	vocab := []string{
		"design", "muxes", "unit", "connect", "net", "parallel",
		"mixer", "chamber", "sieve", "celltrap",
		"a", "b", "c", "in:x", "out:y", "in:", "out:",
		"1", "2", "3", "-5", "w=100", "h=-1", "w=", "#", "\n",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		tokens := rng.Intn(40)
		for i := 0; i < tokens; i++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			if rng.Intn(4) == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		f.Add(b.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := netlist.ParseString(src)
		if err != nil {
			var pe *netlist.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if _, err := netlist.ParseString(n.Format()); err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, n.Format())
		}
	})
}
