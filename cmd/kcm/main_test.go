package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const nrevSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`

// TestFailingRunFlushesTrace: a query with no solution exits 1, and
// the JSONL trace still holds the whole run, ending with the failed
// halt event.
func TestFailingRunFlushesTrace(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "nrev.pl")
	if err := os.WriteFile(prog, []byte(nrevSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "t.jsonl")
	if code, err := run([]string{"-q", "nrev([1,2,3,4,5,6,7,8], [x]).", "-tracejson", out, prog}); code != 1 || err != nil {
		t.Fatalf("exit status %d (%v), want 1", code, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"halt"`) || !strings.Contains(last, `"arg":1`) {
		t.Fatalf("trace of %d lines ends with %q, want the failed halt event", len(lines), last)
	}
}
