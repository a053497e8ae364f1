package machine

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/reader"
	"repro/internal/term"
)

// compileModule compiles source text into a module sharing syms.
func compileModule(t *testing.T, c *compiler.Compiler, src string) *compiler.Module {
	t.Helper()
	clauses, err := reader.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.CompileProgram(clauses)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadDyn consults a base program, boots a machine, then loads a
// second compilation unit (which calls into the first) at run time
// through LoadDyn, and finally runs a query against the new predicate.
func TestLoadDyn(t *testing.T) {
	c := compiler.New(nil)

	// Base program: the library.
	base := compileModule(t, c, `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`)
	goal, err := reader.ParseTerm("true.")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompileQuery(base, goal); err != nil {
		t.Fatal(err)
	}
	im, err := asm.Link(base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Incrementally compiled unit: calls the already loaded app/3 and
	// carries its own query entry.
	inc := compileModule(t, c, `
double(L, D) :- app(L, L, D).
`)
	q, err := reader.ParseTerm("double([a,b], D).")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompileQuery(inc, q); err != nil {
		t.Fatal(err)
	}
	loadBase := m.CodeTop()
	im2, err := asm.LinkAt(inc, loadBase, im.Entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadDyn(im2.Code)
	if err != nil {
		t.Fatal(err)
	}
	if got != loadBase {
		t.Fatalf("loaded at %#x, linked for %#x", got, loadBase)
	}

	entry, ok := im2.Entry(compiler.QueryPI)
	if !ok {
		t.Fatal("no query entry in the loaded unit")
	}
	res, err := m.Run(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("query of the loaded unit failed")
	}
	b := m.QueryBindings(im2.QueryVars)
	if d := b[term.Var("D")]; d.String() != "[a,b,a,b]" {
		t.Fatalf("D = %v", d)
	}
}

// TestLoadSequence loads several units one after another, each
// calling predicates from all earlier ones.
func TestLoadSequence(t *testing.T) {
	c := compiler.New(nil)
	base := compileModule(t, c, "inc(X, Y) :- Y is X + 1.\n")
	g, _ := reader.ParseTerm("true.")
	if err := c.CompileQuery(base, g); err != nil {
		t.Fatal(err)
	}
	im, err := asm.Link(base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entries := map[term.Indicator]uint32{}
	for k, v := range im.Entries {
		entries[k] = v
	}
	srcs := []string{
		"inc2(X, Y) :- inc(X, Z), inc(Z, Y).\n",
		"inc4(X, Y) :- inc2(X, Z), inc2(Z, Y).\n",
		"inc8(X, Y) :- inc4(X, Z), inc4(Z, Y).\n",
	}
	for _, src := range srcs {
		mod := compileModule(t, c, src)
		im2, err := asm.LinkAt(mod, m.CodeTop(), entries)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadDyn(im2.Code); err != nil {
			t.Fatal(err)
		}
		for k, v := range im2.Entries {
			entries[k] = v
		}
	}
	// Final query against the last unit.
	qmod := compileModule(t, c, "")
	g2, _ := reader.ParseTerm("inc8(0, N).")
	if err := c.CompileQuery(qmod, g2); err != nil {
		t.Fatal(err)
	}
	im3, err := asm.LinkAt(qmod, m.CodeTop(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadDyn(im3.Code); err != nil {
		t.Fatal(err)
	}
	entry, _ := im3.Entry(compiler.QueryPI)
	res, err := m.Run(entry)
	if err != nil || !res.Success {
		t.Fatalf("run: %v %v", err, res.Success)
	}
	if n := m.QueryBindings(im3.QueryVars)[term.Var("N")]; n.String() != "8" {
		t.Fatalf("N = %v", n)
	}
}

// TestVerdictCachePoolPath asserts the loader goes through the verdict
// cache: constructing two machines from one image re-checks the same
// block and the second check must be a hit.
func TestVerdictCachePoolPath(t *testing.T) {
	im := buildImage(t, `
p(1).
`, "p(X).")
	analysis.ResetVerdictCache()
	defer analysis.ResetVerdictCache()
	if _, err := New(im, Config{}); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := analysis.VerdictCacheStats()
	if _, err := New(im, Config{}); err != nil {
		t.Fatal(err)
	}
	hits, misses := analysis.VerdictCacheStats()
	if misses != missesBefore {
		t.Fatalf("second construction missed the cache (misses %d -> %d)", missesBefore, misses)
	}
	if hits == 0 {
		t.Fatal("second construction produced no cache hit")
	}
}
