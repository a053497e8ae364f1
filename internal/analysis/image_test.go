package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/trace"
	"repro/internal/word"
)

// buildImage encodes a list of (predicate, instruction list) pairs
// laid out back to back from base, returning the words and the entry
// table.
type testPred struct {
	pi   term.Indicator
	code []kcmisa.Instr
}

func buildImage(t *testing.T, base uint32, preds []testPred) ([]word.Word, map[term.Indicator]uint32) {
	t.Helper()
	var code []word.Word
	entries := map[term.Indicator]uint32{}
	for _, p := range preds {
		entries[p.pi] = base + uint32(len(code))
		code = append(code, enc(t, p.code...)...)
	}
	return code, entries
}

func k7() word.Word { return word.FromInt(7) }

// mainHelper is the simplest two-predicate image: main/0 calls
// helper/1 with an atomic argument.
func mainHelper(t *testing.T) ([]word.Word, map[term.Indicator]uint32) {
	t.Helper()
	return buildImage(t, 0, []testPred{
		{term.Ind("main", 0), []kcmisa.Instr{
			{Op: kcmisa.PutConst, R2: 1, K: k7()},
			{Op: kcmisa.Call, L: 3, N: 1},
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("helper", 1), []kcmisa.Instr{
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Proceed},
		}},
	})
}

func TestAnalyzeImageBasic(t *testing.T) {
	code, entries := mainHelper(t)
	f := AnalyzeImage(code, 0, entries, nil)
	if len(f.Diags) != 0 {
		t.Fatalf("diags: %s", diagString(f.Diags))
	}
	// Default roots: main/0 is the only predicate without a caller.
	if len(f.Roots) != 1 || f.Roots[0] != "main/0" {
		t.Fatalf("roots = %v, want [main/0]", f.Roots)
	}
	mf := f.Pred(term.Ind("main", 0))
	hf := f.Pred(term.Ind("helper", 1))
	if mf == nil || hf == nil {
		t.Fatal("missing pred facts")
	}
	if !mf.Reachable || !hf.Reachable {
		t.Errorf("reachability: main=%v helper=%v, want both", mf.Reachable, hf.Reachable)
	}
	if mf.Det != Det || hf.Det != Det {
		t.Errorf("det: main=%v helper=%v, want det", mf.Det, hf.Det)
	}
	if len(hf.Mode) != 1 || hf.Mode[0] != AbsAtomic {
		t.Errorf("helper mode = %v, want [atomic]", hf.Mode)
	}
	if len(mf.Calls) != 1 || mf.Calls[0] != "helper/1" {
		t.Errorf("main calls = %v, want [helper/1]", mf.Calls)
	}
	if dead := f.DeadPreds(); len(dead) != 0 {
		t.Errorf("dead preds = %v, want none", dead)
	}
}

func TestAnalyzeImagePredAt(t *testing.T) {
	code, entries := mainHelper(t)
	f := AnalyzeImage(code, 0, entries, nil)
	pf, ok := f.PredAt(4)
	if !ok || pf.Name != "helper/1" {
		t.Fatalf("PredAt(4) = %v,%v, want helper/1", pf, ok)
	}
	pf, ok = f.PredAt(0)
	if !ok || pf.Name != "main/0" {
		t.Fatalf("PredAt(0) = %v,%v, want main/0", pf, ok)
	}
	if _, ok := f.PredAt(100); ok {
		t.Fatal("PredAt(100) should miss")
	}
}

func TestAnalyzeImageDetClasses(t *testing.T) {
	// nd/1: two clauses, no cut — the choice point survives.
	// sd/1: same shape with a cut in the first clause body.
	code, entries := buildImage(t, 0, []testPred{
		{term.Ind("nd", 1), []kcmisa.Instr{
			{Op: kcmisa.TryMeElse, L: 4, N: 1},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Proceed},
			{Op: kcmisa.TrustMe},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetNil, R2: 1},
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("sd", 1), []kcmisa.Instr{
			{Op: kcmisa.TryMeElse, L: 13, N: 1},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Cut},
			{Op: kcmisa.Proceed},
			{Op: kcmisa.TrustMe},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetNil, R2: 1},
			{Op: kcmisa.Proceed},
		}},
	})
	f := AnalyzeImage(code, 0, entries, nil)
	if got := f.Pred(term.Ind("nd", 1)).Det; got != NonDet {
		t.Errorf("nd/1 det = %v, want nondet", got)
	}
	if got := f.Pred(term.Ind("sd", 1)).Det; got != SemiDet {
		t.Errorf("sd/1 det = %v, want semidet", got)
	}
}

func TestAnalyzeImageDeadArms(t *testing.T) {
	// sw/1 is only ever called with an atomic argument: the var, list
	// and struct arms of its switch are dead.
	swStart := 3
	code, entries := buildImage(t, 0, []testPred{
		{term.Ind("main", 0), []kcmisa.Instr{
			{Op: kcmisa.PutConst, R2: 1, K: k7()},
			{Op: kcmisa.Call, L: swStart, N: 1},
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("sw", 1), []kcmisa.Instr{
			{Op: kcmisa.SwitchOnTerm, SwT: &kcmisa.TermSwitch{
				Var: swStart + 4, Const: swStart + 5, List: swStart + 4, Struct: swStart + 4}},
			{Op: kcmisa.Fail},
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Proceed},
		}},
	})
	f := AnalyzeImage(code, 0, entries, nil)
	pf := f.Pred(term.Ind("sw", 1))
	if len(pf.Mode) != 1 || pf.Mode[0] != AbsAtomic {
		t.Fatalf("sw/1 mode = %v, want [atomic]", pf.Mode)
	}
	arms := map[string]bool{}
	for _, da := range pf.DeadArms {
		arms[da.Arm] = true
	}
	for _, want := range []string{"var", "list", "struct"} {
		if !arms[want] {
			t.Errorf("missing dead arm %q: %+v", want, pf.DeadArms)
		}
	}
	if arms["const"] {
		t.Errorf("const arm wrongly dead: %+v", pf.DeadArms)
	}
}

func TestAnalyzeImageDeadCycle(t *testing.T) {
	// a/0 and b/0 call each other but nothing reaches them.
	code, entries := buildImage(t, 0, []testPred{
		{term.Ind("main", 0), []kcmisa.Instr{
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("a", 0), []kcmisa.Instr{
			{Op: kcmisa.Execute, L: 2},
		}},
		{term.Ind("b", 0), []kcmisa.Instr{
			{Op: kcmisa.Execute, L: 1},
		}},
	})
	f := AnalyzeImage(code, 0, entries, nil)
	dead := f.DeadPreds()
	if len(dead) != 2 || dead[0] != "a/0" || dead[1] != "b/0" {
		t.Fatalf("dead = %v, want [a/0 b/0]", dead)
	}
	// Unreachable predicates are still classified (under AbsAny).
	if f.Pred(term.Ind("a", 0)).Det == DetUnknown {
		t.Error("dead pred left unclassified")
	}
	// The cycle is one SCC.
	found := false
	for _, scc := range f.SCCs {
		if len(scc) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing 2-element SCC: %v", f.SCCs)
	}
}

func TestAnalyzeImageMetaCall(t *testing.T) {
	// main uses the call/1 escape: everything becomes reachable and
	// every mode widens to any.
	code, entries := buildImage(t, 0, []testPred{
		{term.Ind("main", 0), []kcmisa.Instr{
			{Op: kcmisa.Builtin, N: kcmisa.BICall},
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("orphan", 1), []kcmisa.Instr{
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Proceed},
		}},
	})
	f := AnalyzeImage(code, 0, entries, []term.Indicator{term.Ind("main", 0)})
	of := f.Pred(term.Ind("orphan", 1))
	if !of.Reachable {
		t.Fatal("meta-call must make orphan/1 reachable")
	}
	if len(of.Mode) != 1 || of.Mode[0] != AbsAny {
		t.Errorf("orphan mode = %v, want [any]", of.Mode)
	}
	if !f.Pred(term.Ind("main", 0)).MetaCall {
		t.Error("MetaCall flag not set")
	}
}

func TestImageFactsJSONRoundTrip(t *testing.T) {
	code, entries := mainHelper(t)
	f := AnalyzeImage(code, 0, entries, nil)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ImageFacts
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Base != f.Base || back.Top != f.Top || len(back.Preds) != len(f.Preds) {
		t.Fatalf("round trip lost shape: %+v vs %+v", back, *f)
	}
	for i := range back.Preds {
		if back.Preds[i].Det != f.Preds[i].Det || back.Preds[i].Name != f.Preds[i].Name {
			t.Errorf("pred %d: %+v vs %+v", i, back.Preds[i], f.Preds[i])
		}
	}
}

func TestImageFactsFlat(t *testing.T) {
	code, entries := mainHelper(t)
	f := AnalyzeImage(code, 0, entries, nil)
	flat := f.Flat()
	for _, want := range []string{
		"image [0,5) roots=main/0",
		"pred main/0 @0..3 reachable det=det",
		"pred helper/1 @3..5 reachable det=det mode=(atomic)",
		"calls helper/1",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("Flat() missing %q:\n%s", want, flat)
		}
	}
}

func TestOracle(t *testing.T) {
	code, entries := buildImage(t, 0, []testPred{
		{term.Ind("det", 0), []kcmisa.Instr{
			{Op: kcmisa.Proceed},
		}},
		{term.Ind("nd", 1), []kcmisa.Instr{
			{Op: kcmisa.TryMeElse, L: 5, N: 1},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetConst, R2: 1, K: k7()},
			{Op: kcmisa.Proceed},
			{Op: kcmisa.TrustMe},
			{Op: kcmisa.Neck, N: 1},
			{Op: kcmisa.GetNil, R2: 1},
			{Op: kcmisa.Proceed},
		}},
	})
	f := AnalyzeImage(code, 0, entries, nil)
	o := NewOracle(f)
	// A restore resuming inside nd/1 (classified nondet) is fine.
	o.Emit(trace.Event{Kind: trace.KCPRestore, Arg: 5, Seq: 1})
	if len(o.Violations()) != 0 {
		t.Fatalf("restore in nondet pred flagged: %v", o.Violations())
	}
	// A restore resuming inside det/0 contradicts the Det claim.
	o.Emit(trace.Event{Kind: trace.KCPRestore, Arg: 0, Seq: 2})
	if len(o.Violations()) != 1 {
		t.Fatalf("violations = %v, want one", o.Violations())
	}
	if o.Restores() != 2 {
		t.Errorf("restores = %d, want 2", o.Restores())
	}
	// Unrelated events are ignored.
	o.Emit(trace.Event{Kind: trace.KInstr})
	if o.Restores() != 2 {
		t.Error("KInstr counted as a restore")
	}
}

func TestVerdictCache(t *testing.T) {
	ResetVerdictCache()
	defer ResetVerdictCache()
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.Jump, L: 1},
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	if ds := CheckEncodedCached(code, 0, 0); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	if ds := CheckEncodedCached(code, 0, 0); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	hits, misses := VerdictCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	// The same words at a different placement are a different verdict.
	if ds := CheckEncodedCached(code, 100, 100); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	hits, misses = VerdictCacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats after rebase = %d hits, %d misses; want 1, 2", hits, misses)
	}
	// Cached findings replay too.
	bad := []word.Word{word.Word(250) << 56}
	d1 := CheckEncodedCached(bad, 0, 0)
	d2 := CheckEncodedCached(bad, 0, 0)
	if len(d1) == 0 || len(d2) != len(d1) {
		t.Fatalf("bad block verdicts: %d then %d findings", len(d1), len(d2))
	}
}
