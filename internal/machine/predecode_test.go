package machine

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/reader"
	"repro/internal/term"
)

// predecodeWidths snapshots PredecodedWidth over [0, n).
func predecodeWidths(m *Machine, n uint32) []int {
	ws := make([]int, n)
	for a := uint32(0); a < n; a++ {
		ws[a] = m.PredecodedWidth(a)
	}
	return ws
}

// compileUnit compiles a source module plus a query sharing syms with
// the base compilation, so atoms render identically across units.
func compileUnit(t *testing.T, c *compiler.Compiler, src, query string) *compiler.Module {
	t.Helper()
	mod := compileModule(t, c, src)
	q, err := reader.ParseTerm(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompileQuery(mod, q); err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestPredecodeInvalidation drives the coherence rule of the
// predecoded code cache (predecode.go): every path that writes the
// code space must drop the predecoded entries covering the written
// range, so the machine can never execute a stale decode. Each case
// runs a query against the base program, replaces code while the
// machine is hot, and asserts the *new* code's answer — a stale
// predecode would reproduce the old one.
func TestPredecodeInvalidation(t *testing.T) {
	// basePad keeps the base image comfortably longer than any
	// replacement unit, so whole-image patches stay inside CodeTop.
	const basePad = `
pad1(p1). pad2(p2). pad3(p3). pad4(p4).
pad5(X) :- pad1(X). pad6(X) :- pad2(X).
pad7(X) :- pad5(X), pad6(X).
`
	cases := []struct {
		name      string
		baseSrc   string
		baseQuery string
		wantBase  string // rendered binding of X after the base run
		replSrc   string
		replQuery string
		wantRepl  string // rendered binding of X after the replacement
		// patch=true overwrites the image in place with PatchDyn;
		// patch=false hot-loads the replacement at CodeTop with
		// LoadDyn (same predicate name, new clause set — the new
		// unit's query resolves to its own definition).
		patch bool
		// repartition asserts that the patch moved instruction
		// boundaries: some address that began a multi-word
		// instruction before must decode differently after.
		repartition bool
	}{
		{
			name:      "load-incremental-replacement",
			baseSrc:   "color(red).\n" + basePad,
			baseQuery: "color(X).",
			wantBase:  "red",
			replSrc:   "color(blue).\n",
			replQuery: "color(X).",
			wantRepl:  "blue",
		},
		{
			name:      "patch-in-place-constant",
			baseSrc:   "color(red).\n" + basePad,
			baseQuery: "color(X).",
			wantBase:  "red",
			replSrc:   "color(blue).\n",
			replQuery: "color(X).",
			wantRepl:  "blue",
			patch:     true,
		},
		{
			name: "patch-repartitions-boundaries",
			// Three constant-indexed clauses compile to switch
			// instructions (multi-word); the replacement is
			// straight-line single-word code over the same addresses.
			baseSrc:   "k(a, 1).\nk(b, 2).\nk(c, 3).\n" + basePad,
			baseQuery: "k(b, X).",
			wantBase:  "2",
			replSrc: `
k(b, 99).
r1(a). r2(b). r3(c). r4(d).
r5(X) :- r1(X). r6(X) :- r2(X).
`,
			replQuery:   "k(b, X).",
			wantRepl:    "99",
			patch:       true,
			repartition: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compiler.New(nil)
			base := compileUnit(t, c, tc.baseSrc, tc.baseQuery)
			im, err := asm.Link(base)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(im, Config{})
			if err != nil {
				t.Fatal(err)
			}
			entry, _ := im.Entry(compiler.QueryPI)
			res, err := runToHalt(m, entry)
			if err != nil || !res.Success {
				t.Fatalf("base run: %v %v", err, res.Success)
			}
			if got := m.QueryBindings(im.QueryVars)[term.Var("X")]; got.String() != tc.wantBase {
				t.Fatalf("base X = %v, want %s", got, tc.wantBase)
			}
			if m.PredecodedWidth(entry) == 0 {
				t.Fatal("query entry not predecoded after a run")
			}
			pre := predecodeWidths(m, m.CodeTop())

			// Build and install the replacement.
			mod := compileUnit(t, c, tc.replSrc, tc.replQuery)
			var loadBase uint32
			if !tc.patch {
				loadBase = m.CodeTop()
			}
			im2, err := asm.LinkAt(mod, loadBase, im.Entries)
			if err != nil {
				t.Fatal(err)
			}
			n := uint32(len(im2.Code))
			if tc.patch {
				if n > m.CodeTop() {
					t.Fatalf("replacement (%d words) larger than base image (%d): grow basePad", n, m.CodeTop())
				}
				if err := m.PatchDyn(0, im2.Code); err != nil {
					t.Fatal(err)
				}
			} else {
				got, err := m.LoadDyn(im2.Code)
				if err != nil {
					t.Fatal(err)
				}
				if got != loadBase {
					t.Fatalf("loaded at %d, linked for %d", got, loadBase)
				}
			}
			// The written range must hold no predecoded entries.
			for a := loadBase; a < loadBase+n; a++ {
				if w := m.PredecodedWidth(a); w != 0 {
					t.Fatalf("stale predecoded width %d at %d after code write", w, a)
				}
			}

			entry2, ok := im2.Entry(compiler.QueryPI)
			if !ok {
				t.Fatal("no query entry in replacement unit")
			}
			m.Reset() // second run on the same machine
			res2, err := runToHalt(m, entry2)
			if err != nil || !res2.Success {
				t.Fatalf("replacement run: %v %v", err, res2.Success)
			}
			if got := m.QueryBindings(im2.QueryVars)[term.Var("X")]; got.String() != tc.wantRepl {
				t.Fatalf("replacement X = %v, want %s (stale predecode?)", got, tc.wantRepl)
			}

			if tc.repartition {
				post := predecodeWidths(m, m.CodeTop())
				multi, moved := false, false
				for a := uint32(0); a < n; a++ {
					if pre[a] > 1 {
						multi = true
						if post[a] != pre[a] {
							moved = true
						}
					}
				}
				if !multi {
					t.Fatal("precondition: base image has no multi-word instruction inside the patched range")
				}
				if !moved {
					t.Fatal("patch did not re-partition any multi-word instruction boundary")
				}
			}
		})
	}
}
