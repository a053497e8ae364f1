package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises a map of relative path -> source under a temp
// dir and lints it.
func lintSources(t *testing.T, files map[string]string) []finding {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := lintTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func hasFinding(fs []finding, substr string) bool {
	for _, f := range fs {
		if strings.Contains(f.msg, substr) {
			return true
		}
	}
	return false
}

const traceStub = `package trace

type Kind uint8

const (
	KInstr Kind = iota
	KCall
	KHalt
)
`

func TestSentinelCompare(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"a/a.go": `package a

import "errors"

var ErrBad = errors.New("bad")

func f(err error) (bool, bool, bool, bool) {
	x := err == ErrBad        // flagged
	y := ErrBad != err        // flagged
	z := errors.Is(err, ErrBad)
	w := err == nil           // not a sentinel
	return x, y, z, w
}
`,
	})
	if len(fs) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(fs), fs)
	}
	if !hasFinding(fs, "errors.Is") {
		t.Errorf("missing errors.Is hint: %v", fs)
	}
}

func TestStepsAllocs(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"machine/m.go": `package machine

type Machine struct{ xs []int }

type ev struct{ k int }

func (m *Machine) steps(limit uint64) uint64 {
	m.xs = append(m.xs, 1)   // flagged
	p := &ev{k: 1}           // flagged
	_ = ev{k: 2}             // by-value struct literal: fine
	_ = p
	go func() {}()           // go + function literal: flagged twice
	return limit
}

func (m *Machine) stepsTraced(n int) {
	m.xs = make([]int, n) // flagged: the traced twin is hot-loop code
}

func (m *Machine) other() {
	_ = make([]int, 4) // allocation outside steps: fine
}
`,
	})
	for _, want := range []string{"append call", "address of composite literal", "go statement", "function literal", "make call in stepsTraced"} {
		if !hasFinding(fs, want) {
			t.Errorf("missing %q finding: %v", want, fs)
		}
	}
	if len(fs) != 5 {
		t.Fatalf("got %d findings, want 5: %v", len(fs), fs)
	}
}

func TestKindSwitchExhaustive(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"trace/trace.go": traceStub,
		"use/use.go": `package use

import "x/trace"

func f(k trace.Kind, s string) {
	switch k { // flagged: no default, KHalt missing
	case trace.KInstr, trace.KCall:
	}
	switch k { // default present: fine
	case trace.KInstr:
	default:
	}
	switch k { // full enumeration: fine
	case trace.KInstr, trace.KCall, trace.KHalt:
	}
	switch s { // not a Kind switch
	case "KInstr":
	}
}
`,
		"wam/wam.go": `package wam

type cellKind int

const (
	KRef cellKind = iota
	KList
)

func g(k cellKind) {
	switch k { // bare K idents outside package trace: not a Kind switch
	case KRef:
	}
}
`,
	})
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if !hasFinding(fs, "misses KHalt") {
		t.Errorf("finding should name the missing constant: %v", fs)
	}
}

func TestBareKindInTracePackage(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"trace/trace.go": traceStub,
		"trace/sink.go": `package trace

func h(k Kind) {
	switch k { // flagged: bare kind names count inside package trace
	case KInstr:
	}
}
`,
	})
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
}

func TestMachineAcrossWrite(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"srv/srv.go": `package srv

import "net/http"

type pool struct{}
type sess struct{}

func (p *pool) Begin() *sess  { return nil }
func (s *sess) Close()        {}

// Flagged: the machine is still leased when w is written.
func badHandler(w http.ResponseWriter, r *http.Request, p *pool) {
	s := p.Begin()
	w.WriteHeader(200) // flagged
	s.Close()
}

// Flagged: a deferred Close holds the machine to function end.
func badDeferHandler(w http.ResponseWriter, r *http.Request, p *pool) {
	s := p.Begin()
	defer s.Close()
	w.WriteHeader(200) // flagged
}

// Fine: released before the network write.
func goodHandler(w http.ResponseWriter, r *http.Request, p *pool) {
	s := p.Begin()
	s.Close()
	w.WriteHeader(200)
}

// Fine: writer used before the lease, machine never crosses a write.
func goodOrder(w http.ResponseWriter, r *http.Request, p *pool) {
	w.Header().Set("a", "b")
	s := p.Begin()
	s.Close()
}

// Fine: no writer in scope.
func runOnly(p *pool) {
	s := p.Begin()
	defer s.Close()
}
`,
	})
	if len(fs) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(fs), fs)
	}
	if !hasFinding(fs, "held across this use of w") {
		t.Errorf("finding should name the writer: %v", fs)
	}
}

func TestTestdataSkipped(t *testing.T) {
	fs := lintSources(t, map[string]string{
		"a/testdata/bad.go": `package bad

this is not Go at all
`,
		"a/a.go": `package a
`,
	})
	if len(fs) != 0 {
		t.Fatalf("got findings from testdata: %v", fs)
	}
}
