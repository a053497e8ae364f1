package machine

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/kcmisa"
	"repro/internal/reader"
	"repro/internal/term"
	"repro/internal/word"
)

// Invalidation scoping for the untimed dynamic-write paths (dyn.go):
// a mutation must drop exactly the predecoded entries that could
// overlap the written words — and nothing of the predicates around
// them — and every path that reverts words must flush them, or a
// later run executes stale decodes.

// patchPred compiles a replacement chain for pi, links it at the
// predicate's current address and patches it in place. The
// replacement must have the same shape (same encoded size) as the
// original, which the caller guarantees by swapping constants only.
func patchPred(t *testing.T, m *Machine, c *compiler.Compiler, im *asm.Image, pi term.Indicator, clauses ...string) (lo, hi uint32) {
	t.Helper()
	var parsed []term.Term
	for _, cl := range clauses {
		tm, err := reader.ParseTerm(cl)
		if err != nil {
			t.Fatalf("parse %q: %v", cl, err)
		}
		parsed = append(parsed, tm)
	}
	mod, err := c.CompileClauses(pi, parsed)
	if err != nil {
		t.Fatalf("compile %v: %v", pi, err)
	}
	start, ok := im.Entry(pi)
	if !ok {
		t.Fatalf("no entry for %v", pi)
	}
	im2, err := asm.LinkAt(mod, start, im.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PatchDyn(start, im2.Code); err != nil {
		t.Fatalf("patch %v: %v", pi, err)
	}
	return start, start + uint32(len(im2.Code))
}

// predRange reads a predicate's code range from the image's entry
// table: from its entry to the next-higher entry, or to the end of the
// image (linked at address 0).
func predRange(t *testing.T, im *asm.Image, pi term.Indicator) (uint32, uint32) {
	t.Helper()
	lo, ok := im.Entry(pi)
	if !ok {
		t.Fatalf("no entry for %v", pi)
	}
	hi := uint32(len(im.Code))
	for _, a := range im.Entries {
		if a > lo && a < hi {
			hi = a
		}
	}
	return lo, hi
}

// TestDynPatchInvalidatesOnlyOverlappingPredecode checks the scoping
// rule, including its diff-awareness: a whole-predicate patch that changes one operand word invalidates
// only the span covering that word (plus the downward margin for
// instructions that could straddle into it) — decodes past the
// changed word, and the whole neighbouring predicate, survive.
func TestDynPatchInvalidatesOnlyOverlappingPredecode(t *testing.T) {
	const src = `
p(1, 2, 3).
q(4, 5, 6).
`
	c := compiler.New(nil)
	mod := compileUnit(t, c, src, "p(X, Y, Z), q(A, B, C).")
	im, err := asm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if res, err := runToHalt(m, entry); err != nil || !res.Success {
		t.Fatalf("warm run: %v %v", err, res.Success)
	}

	qLo, qHi := predRange(t, im, term.Ind("q", 3))
	before := predecodeWidths(m, m.CodeTop())
	warm := 0
	for _, w := range before[qLo:qHi] {
		if w > 0 {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("q was not predecoded by the warm run")
	}
	shadow := make([]word.Word, m.CodeTop())
	for a := range shadow {
		shadow[a] = m.CodeWordAt(uint32(a))
	}

	patchPred(t, m, c, im, term.Ind("p", 3), "p(7, 2, 3) .")

	// Exactly one word changed: the K operand holding the constant.
	changed := int64(-1)
	for a := range shadow {
		if m.CodeWordAt(uint32(a)) != shadow[a] {
			if changed >= 0 {
				t.Fatalf("more than one word changed (%d and %d)", changed, a)
			}
			changed = int64(a)
		}
	}
	if changed < 0 {
		t.Fatal("patch changed nothing")
	}
	// Cleared: [changed-(MaxInstrWords-1), changed+1). Everything above
	// the changed word keeps its decode.
	lo := changed - (kcmisa.MaxInstrWords - 1)
	if lo < 0 {
		lo = 0
	}
	for a := lo; a <= changed; a++ {
		if got := m.PredecodedWidth(uint32(a)); got != 0 {
			t.Errorf("predecoded entry at %d survived a patch of word %d", a, changed)
		}
	}
	for a := changed + 1; a < int64(m.CodeTop()); a++ {
		if got := m.PredecodedWidth(uint32(a)); got != before[a] {
			t.Errorf("predecode at %d beyond the changed word altered: %d -> %d", a, before[a], got)
		}
	}
}

// TestRollbackFlushesRevertedPredecode is the regression test for a
// missed flush: Rollback reverts patched words with writeDyn but used
// to leave the dirty span pending, so when no LoadDyn followed (an
// empty tenant delta) the next run executed the *patched* decode out
// of the stale predecode table.
func TestRollbackFlushesRevertedPredecode(t *testing.T) {
	const src = `
p(1).
`
	c := compiler.New(nil)
	mod := compileUnit(t, c, src, "p(X).")
	im, err := asm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	mark := m.Snapshot()

	run := func(want string) {
		t.Helper()
		res, err := runToHalt(m, entry)
		if err != nil || !res.Success {
			t.Fatalf("run: %v %v", err, res.Success)
		}
		if got := m.QueryBindings(im.QueryVars)[term.Var("X")]; got.String() != want {
			t.Fatalf("X = %v, want %s", got, want)
		}
	}

	run("1")
	patchPred(t, m, c, im, term.Ind("p", 1), "p(2) .")
	run("2") // warms the predecode over the patched words

	m.Rollback(mark)
	// No LoadDyn follows — exactly the empty-delta path. The reverted
	// words must already be flushed from predecode and caches.
	run("1")
}

// TestGrowPredecodeSweepsResidentFlags is the regression test for
// stale residency: once the code frontier outgrows the simulated code
// cache, conflict evictions become possible and every pwResident flag
// set so far is an unsound claim — they must be swept, not just
// stopped from spreading.
func TestGrowPredecodeSweepsResidentFlags(t *testing.T) {
	const src = `
p(1).
`
	c := compiler.New(nil)
	mod := compileUnit(t, c, src, "p(X).")
	im, err := asm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	// Two runs: the first fills the predecode table, the second
	// observes all-hit replays and sets resident flags.
	for i := 0; i < 2; i++ {
		if res, err := runToHalt(m, entry); err != nil || !res.Success {
			t.Fatalf("run %d: %v %v", i, err, res.Success)
		}
	}
	resident := 0
	for _, w := range m.pwidth {
		if w&pwResident != 0 {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("no resident flags set after two warm runs")
	}

	m.growPredecode(cache.CodeWords + 1)

	if m.pdecResidentOK {
		t.Error("pdecResidentOK still set past the cache size")
	}
	for a, w := range m.pwidth {
		if w&pwResident != 0 {
			t.Errorf("resident flag at %d survived outgrowing the cache", a)
		}
	}
}
