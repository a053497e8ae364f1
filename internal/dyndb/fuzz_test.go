package dyndb_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/reader"
)

// Property layer for the mutation path. FuzzAssertRetract checks the
// database against a trivially-correct model: a Go slice of clause
// texts per predicate, mutated by the same ordered assertz / asserta /
// retract rules. Whatever interleaving the fuzzer invents, the
// compiled, indexed, machine-executed chain must enumerate exactly
// the model's clauses in the model's order. FuzzMalformedClause feeds
// arbitrary terms through assert and pins the rejection contract:
// failures are typed (ErrStaticPred, ErrBadClause or a *CodeError),
// never a panic, and a lease still answers a control query after
// every rejection.

const fuzzSrc = `
:- dynamic(p/1).
:- dynamic(q/1).
peek(X) :- p(X).
`

// fuzzAtoms is the constant alphabet mutations draw from.
var fuzzAtoms = [8]string{"a", "b", "c", "d", "e", "f", "g", "h"}

// FuzzAssertRetract drives a random interleaving of assertz, asserta
// and retract over two predicates and checks, after every mutation,
// that the tail is within the compaction bound and that enumeration
// matches the model database.
func FuzzAssertRetract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x04, 0x05})             // assertz then retract on p
	f.Add([]byte{0x02, 0x0a, 0x12, 0x06, 0x04})       // asserta stack on p, retracts
	f.Add([]byte{0x01, 0x09, 0x11, 0x19, 0x05, 0x0d}) // q traffic
	f.Add([]byte{0x38, 0x30, 0x28, 0x20, 0x3c, 0x34})
	f.Add(compactionSeed())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 192 {
			ops = ops[:192] // long enough to cross several compactions
		}
		checkAssertRetract(t, ops)
	})
}

// compactionSeed keeps a few clauses live on both predicates and then
// churns assert/retract pairs over them long enough for the tail to be
// compacted several times.
func compactionSeed() []byte {
	ops := []byte{0x00, 0x09, 0x12, 0x1b} // p(a), q(b), asserta p(c), q(d)
	for i := 0; len(ops) < 180; i++ {
		atom := byte(4+i%4) << 3
		ops = append(ops, atom|0x00, atom|0x03, atom|0x04, atom|0x05) // assertz p, asserta q, retract both
	}
	return ops
}

// checkAssertRetract replays one op string against a fresh database
// and the model, solving on one pool, and returns how many compactions
// the walk crossed.
func checkAssertRetract(t *testing.T, ops []byte) int {
	db, pool := mustDB(t, fuzzSrc), newPool()
	model := map[string][]string{"p": nil, "q": nil}
	compactions, prev := 0, checkTailBound(t, db)
	for i, op := range ops {
		pred := "p"
		if op&1 != 0 {
			pred = "q"
		}
		atom := fuzzAtoms[(op>>3)&7]
		clause := fmt.Sprintf("%s(%s)", pred, atom)
		switch (op >> 1) & 3 {
		case 0, 3: // assertz (3 keeps the op space dense)
			if _, err := db.Assertz(pt(t, clause)); err != nil {
				t.Fatalf("op %d: assertz %s: %v", i, clause, err)
			}
			model[pred] = append(model[pred], atom)
		case 1: // asserta
			if _, err := db.Asserta(pt(t, clause)); err != nil {
				t.Fatalf("op %d: asserta %s: %v", i, clause, err)
			}
			model[pred] = append([]string{atom}, model[pred]...)
		case 2: // retract first occurrence
			got, _, err := db.Retract(pt(t, clause))
			if err != nil {
				t.Fatalf("op %d: retract %s: %v", i, clause, err)
			}
			want := false
			for j, a := range model[pred] {
				if a == atom {
					model[pred] = append(model[pred][:j:j], model[pred][j+1:]...)
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("op %d: retract %s = %v, model says %v", i, clause, got, want)
			}
		}
		// A mutation appends a block; only a compaction shrinks the tail.
		tail := checkTailBound(t, db)
		if tail < prev {
			compactions++
		}
		prev = tail
		for _, p := range []string{"p", "q"} {
			want := make([]string, len(model[p]))
			for j, a := range model[p] {
				want[j] = "X=" + a
			}
			wantSols(t, solve(t, pool, db, p+"(X)", 0), want...)
		}
	}
	// The rule over p/1 tracks too (indexing through a caller).
	want := make([]string, len(model["p"]))
	for j, a := range model["p"] {
		want[j] = "X=" + a
	}
	wantSols(t, solve(t, pool, db, "peek(X)", 0), want...)
	return compactions
}

// FuzzMalformedClause asserts arbitrary fuzz-built terms into a
// database whose named predicates are all static, so every known-head
// clause is rejected and unknown heads exercise on-the-fly
// declaration. The invariants: no panic, every rejection is typed,
// and a lease still answers a static control query afterwards.
func FuzzMalformedClause(f *testing.F) {
	f.Add("color(red)")
	f.Add(":- dynamic(z/1)")
	f.Add("42")
	f.Add("X")
	f.Add("zzz(X) :- no_such_pred(X)")
	f.Add("zzz(X) :- app(X, X, X)")
	f.Add("app(a, b)")
	f.Add("foo(") // parse failure
	f.Fuzz(func(t *testing.T, text string) {
		const src = `
color(white).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`
		db := mustDB(t, src)
		if !strings.HasSuffix(strings.TrimSpace(text), ".") {
			text += " ."
		}
		cl, err := reader.ParseTerm(text)
		if err == nil {
			if _, err := db.Assertz(cl); err != nil {
				var ce *machine.CodeError
				if !errors.Is(err, dyndb.ErrStaticPred) &&
					!errors.Is(err, dyndb.ErrBadClause) &&
					!errors.As(err, &ce) {
					t.Fatalf("untyped rejection for %q: %v", text, err)
				}
			}
		}
		// Whatever happened, a lease still answers.
		wantSols(t, solve(t, newPool(), db, "app([a], [b], R)", 0), "R=[a,b]")
	})
}

// TestFuzzSeedsAsUnitTests replays the seed corpus deterministically
// so the property layer runs on every plain `go test`, not only under
// -fuzz.
func TestFuzzSeedsAsUnitTests(t *testing.T) {
	db, p := mustDB(t, fuzzSrc), newPool()
	for _, op := range []string{"p(a)", "p(b)", "q(c)"} {
		if _, err := db.Assertz(pt(t, op)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _, err := db.Retract(pt(t, "p(a)")); err != nil || !ok {
		t.Fatalf("retract: %v %v", ok, err)
	}
	wantSols(t, solve(t, p, db, "p(X)", 0), "X=b")
	wantSols(t, solve(t, p, db, "q(X)", 0), "X=c")
	wantSols(t, solve(t, p, db, "peek(X)", 0), "X=b")

	if n := checkAssertRetract(t, compactionSeed()); n < 3 {
		t.Fatalf("compaction seed crossed %d compactions, want several", n)
	}
}
