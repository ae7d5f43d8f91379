package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const corpusDir = "../../internal/mps/testdata"

// normalize re-marshals a result document with its volatile fields
// (wall time, node counts, full search stats) removed, leaving only the
// deterministic outcome: status, objective, bound, shape, incumbent.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("result is not JSON: %v\n%s", err, raw)
	}
	delete(doc, "runtime_ms")
	delete(doc, "nodes")
	delete(doc, "stats")
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestCLIGolden pins the full normalized stdout document for two corpus
// instances — one minimization, one OBJSENSE MAX — against checked-in
// goldens. Refresh with go test ./cmd/columbamilp -update.
func TestCLIGolden(t *testing.T) {
	for _, name := range []string{"knap3", "maxknap"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(
				[]string{"-workers", "1", filepath.Join(corpusDir, name+".mps")},
				strings.NewReader(""), &stdout, &stderr,
			)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			got := normalize(t, stdout.Bytes())
			golden := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden: %v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// decodeEnvelope asserts stderr holds exactly one columbamilp-error/v1
// JSON line and returns it.
func decodeEnvelope(t *testing.T, stderr string) cliError {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("stderr has %d lines, want exactly 1:\n%s", len(lines), stderr)
	}
	var e cliError
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("stderr is not a JSON envelope: %v\n%s", err, stderr)
	}
	if e.Schema != errorSchema {
		t.Fatalf("schema %q, want %q", e.Schema, errorSchema)
	}
	if e.Message == "" {
		t.Fatal("empty error message")
	}
	return e
}

// TestCLIParseError checks the failure contract on malformed input:
// nonzero exit, no stdout document, and a single stderr envelope with
// the parse position.
func TestCLIParseError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.mps")
	if err := os.WriteFile(bad, []byte("ROWS\n N  OBJ\nCOLUMNS\n    X  NOPE  1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{bad}, strings.NewReader(""), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("unexpected stdout:\n%s", stdout.String())
	}
	e := decodeEnvelope(t, stderr.String())
	if e.Code != "mps_parse" {
		t.Fatalf("code %q, want mps_parse", e.Code)
	}
	if e.Line != 4 || e.Col != 8 {
		t.Fatalf("position %d:%d, want 4:8", e.Line, e.Col)
	}
}

// TestCLITimeout checks budget expiry: a 1ns budget cannot finish any
// search, so the CLI exits 2, still emits the result document (status
// limit or feasible), and reports the timeout envelope on stderr.
func TestCLITimeout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(
		[]string{"-workers", "1", "-timeout", "1ns", filepath.Join(corpusDir, "cover.mps")},
		strings.NewReader(""), &stdout, &stderr,
	)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	var doc struct {
		Schema string `json:"schema"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout: %v\n%s", err, stdout.String())
	}
	if doc.Schema != resultSchema {
		t.Fatalf("schema %q, want %q", doc.Schema, resultSchema)
	}
	if doc.Status != "limit" && doc.Status != "feasible" {
		t.Fatalf("status %q, want limit or feasible", doc.Status)
	}
	e := decodeEnvelope(t, stderr.String())
	if e.Code != "timeout" {
		t.Fatalf("code %q, want timeout", e.Code)
	}
}

// TestCLIStdin solves an instance piped on stdin (no positional file).
func TestCLIStdin(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(corpusDir, "knap3.mps"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workers", "1"}, bytes.NewReader(raw), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var doc struct {
		Status    string   `json:"status"`
		Objective *float64 `json:"objective"`
		File      string   `json:"file"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "optimal" || doc.Objective == nil || *doc.Objective != -16 {
		t.Fatalf("got %+v, want optimal -16", doc)
	}
	if doc.File != "" {
		t.Fatalf("file %q, want empty for stdin", doc.File)
	}
}

// TestCLIBadFlag checks that out-of-range option values produce the
// envelope rather than a bare message or a silent reinterpretation: a
// worker count below -1 would otherwise mean all cores, and a negative
// budget no budget at all.
func TestCLIBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-7"},
		{"-timeout", "-1s"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(
			append(args, filepath.Join(corpusDir, "knap3.mps")),
			strings.NewReader(""), &stdout, &stderr,
		)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1", args, code)
		}
		if e := decodeEnvelope(t, stderr.String()); e.Code != "invalid_option" {
			t.Fatalf("%v: code %q, want invalid_option", args, e.Code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: stdout %q, want nothing", args, stdout.String())
		}
	}
}

// TestCLIRemovedKernelFlag checks that -kernel, removed with the dense
// LP engine, is now an unknown flag: flag parsing fails with exit 1
// before any input is read.
func TestCLIRemovedKernelFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(
		[]string{"-kernel", "sparse", filepath.Join(corpusDir, "knap3.mps")},
		strings.NewReader(""), &stdout, &stderr,
	)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -kernel") {
		t.Fatalf("stderr %q, want the flag package's unknown-flag message", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", stdout.String())
	}
}

// TestCLIRemovedBranchingFlag checks that -branching, removed with
// pseudocost branching, is now an unknown flag: flag parsing fails with
// exit 1 before any input is read.
func TestCLIRemovedBranchingFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(
		[]string{"-branching", "mostfrac", filepath.Join(corpusDir, "knap3.mps")},
		strings.NewReader(""), &stdout, &stderr,
	)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -branching") {
		t.Fatalf("stderr %q, want the flag package's unknown-flag message", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", stdout.String())
	}
}
