package machine

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/reader"
	"repro/internal/term"
	"repro/internal/trace"
)

func buildImage(t *testing.T, src, query string) *asm.Image {
	t.Helper()
	clauses, err := reader.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	c := compiler.New(nil)
	m, err := c.CompileProgram(clauses)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := reader.ParseTerm(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompileQuery(m, goal); err != nil {
		t.Fatal(err)
	}
	im, err := asm.Link(m)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// runToHalt boots m at entry and runs it to halt or fault.
func runToHalt(m *Machine, entry uint32) (Result, error) {
	m.Begin(entry)
	_, err := m.RunFor(nil, 0)
	return m.Result(), err
}

func run(t *testing.T, src, query string, cfg Config) (*Machine, Result, error) {
	t.Helper()
	im := buildImage(t, src, query)
	m, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	res, err := runToHalt(m, entry)
	return m, res, err
}

const loopSrc = `
loop(0).
loop(N) :- N > 0, M is N - 1, loop(M).
`

func TestHeapOverflowTraps(t *testing.T) {
	// A tiny global zone must trap on overflow, not corrupt memory:
	// the hardware stack-overflow check of the paper.
	src := "grow(0, []).\ngrow(N, [N|T]) :- N > 0, M is N - 1, grow(M, T).\n"
	_, _, err := run(t, src, "grow(100000, _).", Config{
		GlobalBase: 0x10000, GlobalSize: 0x1000, GCOnOverflow: Off,
	})
	if err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("want zone trap, got %v", err)
	}
}

func TestChoiceOverflowTraps(t *testing.T) {
	// Non-deterministic predicates pile up choice points.
	src := "p(_) :- q.\np(_) :- q.\nq.\nr(0).\nr(N) :- p(N), M is N - 1, r(M).\n"
	_, _, err := run(t, src, "r(100000).", Config{
		ChoiceBase: 0x800000, ChoiceSize: 0x200,
	})
	if err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("want choice-zone trap, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	im := buildImage(t, "spin :- spin.\n", "spin.")
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	m.Begin(entry)
	if st, err := m.RunFor(nil, 1000); err != nil || st != Suspended {
		t.Fatalf("spin: %v %v, want Suspended", st, err)
	}
	if n := m.Result().Stats.Instrs; n != 1000 {
		t.Fatalf("suspended after %d instructions, want 1000", n)
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, q := range []string{
		"X is 1 // 0.",
		"X is 1 mod 0.",
		"p(Z), X is Z + 1.", // atom operand reaches the ALU
		"X is Y + 1.",       // unbound operand
	} {
		_, _, err := run(t, "p(foo).\n", q, Config{})
		if err == nil {
			t.Errorf("%q: expected machine error", q)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	m, res, err := run(t, "ok.\n", "X is 1.5 + 2.25, X < 4.0, Y is X * 2.0.", Config{})
	if err != nil || !res.Success {
		t.Fatalf("float query: %v %v", err, res.Success)
	}
	b := m.QueryBindings(map[term.Var]int{"X": 0, "Y": 1})
	if b["X"].String() != "3.75" || b["Y"].String() != "7.5" {
		t.Fatalf("bindings %v", b)
	}
}

func TestShallowCountersDeterministicLoop(t *testing.T) {
	// The loop predicate has a const and a var clause; every call with
	// N>0 dispatches through the switch default straight to clause 2
	// (determinate), and N=0 hits the const bucket's try block whose
	// guard keeps it shallow until the neck.
	_, res, err := run(t, loopSrc, "loop(1000).", Config{})
	if err != nil || !res.Success {
		t.Fatal(err)
	}
	s := res.Stats
	if s.ShallowFails != 0 {
		t.Errorf("unexpected shallow fails: %d", s.ShallowFails)
	}
	if s.DeepFails != 0 {
		t.Errorf("unexpected deep fails: %d", s.DeepFails)
	}
	// Only the final loop(0) materialises one choice point at its neck
	// (clause 1 succeeded with clause 2 still pending).
	if s.ChoicePoints > 2 {
		t.Errorf("determinate loop created %d choice points", s.ChoicePoints)
	}
}

func TestShallowAvoidsChoicePoints(t *testing.T) {
	// max/3-style guard selection: shallow mode never materialises a
	// choice point when the guard commits, eager mode always does.
	src := "m(X, Y, X) :- X >= Y.\nm(X, Y, Y) :- X < Y.\nrun(0).\nrun(N) :- m(1, 2, _), m(2, 1, _), M is N - 1, run(M).\n"
	_, shal, err := run(t, src, "run(500).", Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, eag, err := run(t, src, "run(500).", Config{Shallow: Off})
	if err != nil {
		t.Fatal(err)
	}
	if !shal.Success || !eag.Success {
		t.Fatal("runs failed")
	}
	// m(2,1,_) commits on clause 1's guard at the neck with an
	// alternative remaining, so shallow still creates those; but
	// m(1,2,_) fails clause 1 shallowly and enters the trust clause
	// with none. Eager mode pays a full choice point for every call.
	if shal.Stats.ChoicePoints >= eag.Stats.ChoicePoints {
		t.Errorf("shallow %d CPs >= eager %d", shal.Stats.ChoicePoints, eag.Stats.ChoicePoints)
	}
	if shal.Stats.Cycles >= eag.Stats.Cycles {
		t.Errorf("shallow %d cycles >= eager %d", shal.Stats.Cycles, eag.Stats.Cycles)
	}
}

func TestTraceOutput(t *testing.T) {
	var tr strings.Builder
	text := trace.NewText(&tr)
	_, res, err := run(t, "ok.\n", "ok.", Config{Hook: text})
	if err != nil || !res.Success {
		t.Fatal(err)
	}
	if err := text.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "proceed") || !strings.Contains(tr.String(), "halt") {
		t.Fatalf("trace incomplete:\n%s", tr.String())
	}
}

func TestResetKeepsCachesWarm(t *testing.T) {
	im := buildImage(t, loopSrc, "loop(200).")
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	cold, err := runToHalt(m, entry)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	res, err := runToHalt(m, entry)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("warm run failed")
	}
	if res.Stats.Cycles >= cold.Stats.Cycles {
		t.Errorf("warm run (%d cycles) not faster than cold (%d)", res.Stats.Cycles, cold.Stats.Cycles)
	}
	if res.CCache.ReadMiss != 0 {
		t.Errorf("warm run still missed code cache %d times", res.CCache.ReadMiss)
	}
}

func TestKlipsArithmetic(t *testing.T) {
	s := Stats{Cycles: 1_250_000, Inferences: 1000, NsPerCycle: 80}
	if ms := s.Millis(); ms != 100 {
		t.Fatalf("ms = %v", ms)
	}
	if k := s.Klips(); k != 10 {
		t.Fatalf("Klips = %v", k)
	}
	s.NsPerCycle = 0 // defaults to 80
	if s.Seconds() != 0.1 {
		t.Fatalf("seconds %v", s.Seconds())
	}
}

func TestMemoryGrowthStaysBounded(t *testing.T) {
	// LCO + trail unwinding: a long deterministic loop must not leak
	// local or choice stack (the mapped page count stays small).
	m, res, err := run(t, loopSrc, "loop(200000).", Config{})
	if err != nil || !res.Success {
		t.Fatal(err)
	}
	if pages := m.dmmu.MappedPages(); pages > 8 {
		t.Errorf("loop touched %d data pages; stacks are leaking", pages)
	}
}
