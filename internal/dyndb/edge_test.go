package dyndb_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/term"
)

// Edge behaviour of the clause store: auxiliary predicates from
// control constructs, call sites living inside the tail, retract on
// never-declared predicates, and the Materialize frontier contract.

// TestAuxPredicatesReplacedAcrossRebuilds asserts a clause whose body
// compiles through auxiliary predicates (a disjunction) and then
// mutates the chain again: the old rebuild's aux entries must be
// dropped from the entry table and the new ones used, or the linker
// would resolve stale names.
func TestAuxPredicatesReplacedAcrossRebuilds(t *testing.T) {
	db, p := mustDB(t, ":- dynamic(d/1).\n"), newPool()
	if _, err := db.Assertz(pt(t, "d(X) :- ( X = a ; X = b )")); err != nil {
		t.Fatalf("assert with disjunction: %v", err)
	}
	wantSols(t, solve(t, p, db, "d(X)", 0), "X=a", "X=b")
	if _, err := db.Assertz(pt(t, "d(c)")); err != nil {
		t.Fatalf("second assert: %v", err)
	}
	wantSols(t, solve(t, p, db, "d(X)", 0), "X=a", "X=b", "X=c")
	if _, err := db.Assertz(pt(t, "d(Y) :- ( Y = e ; Y = f )")); err != nil {
		t.Fatalf("third assert: %v", err)
	}
	wantSols(t, solve(t, p, db, "d(X)", 0), "X=a", "X=b", "X=c", "X=e", "X=f")
}

// TestTailCallSiteRetargeted exercises the in-place patch branch of
// retargeting: r/1's call to s/1 lives in the tail (r was itself
// asserted), so when s moves the call site is rewritten directly
// rather than through the base-overlay patch map.
func TestTailCallSiteRetargeted(t *testing.T) {
	db, p := mustDB(t, ":- dynamic(r/1).\n:- dynamic(s/1).\n"), newPool()
	if _, err := db.Assertz(pt(t, "s(one)")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assertz(pt(t, "r(X) :- s(X)")); err != nil {
		t.Fatal(err)
	}
	wantSols(t, solve(t, p, db, "r(X)", 0), "X=one")
	// Each assert moves s/1 to a fresh block; r's tail-resident call
	// site must follow every time.
	for _, atom := range []string{"two", "three", "four"} {
		if _, err := db.Assertz(pt(t, "s("+atom+")")); err != nil {
			t.Fatal(err)
		}
	}
	wantSols(t, solve(t, p, db, "r(X)", 0), "X=one", "X=two", "X=three", "X=four")
}

// TestRetractUnknownPredicate: retracting from a predicate the
// database never saw is a clean "no", not an error or a declaration.
func TestRetractUnknownPredicate(t *testing.T) {
	db := mustDB(t, colorSrc)
	v0 := db.Version()
	ok, v, err := db.Retract(pt(t, "never_seen(x)"))
	if err != nil || ok {
		t.Fatalf("retract unknown: ok=%v err=%v", ok, err)
	}
	if v != v0 {
		t.Fatalf("no-op retract bumped version %d -> %d", v0, v)
	}
	if db.Dynamic(term.Ind("never_seen", 1)) {
		t.Fatal("retract declared the predicate")
	}
}

// TestAccessorEdges covers the small accessor contracts: Clauses of an
// unknown predicate is nil, New rejects a dynamic predicate without a
// stub, Reload of a fresh predicate that fails compilation leaves no
// half-declared residue.
func TestAccessorEdges(t *testing.T) {
	db := mustDB(t, colorSrc)
	if cls := db.Clauses(term.Ind("nope", 3)); cls != nil {
		t.Fatalf("Clauses of unknown pred = %v, want nil", cls)
	}

	im, _, err := core.MustLoad(colorSrc).BaseImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyndb.New(im, []term.Indicator{term.Ind("no_stub", 9)}); err == nil ||
		!strings.Contains(err.Error(), "no stub") {
		t.Fatalf("New without stub: %v", err)
	}

	// A failing Reload on a brand-new predicate must not leave a
	// phantom declaration behind.
	fresh := term.Ind("fresh", 1)
	if _, err := db.Reload(fresh, []term.Term{pt(t, "fresh(X) :- no_such_body(X)")}); !errors.Is(err, dyndb.ErrBadClause) {
		t.Fatalf("bad reload: %v", err)
	}
	if db.Dynamic(fresh) {
		t.Fatal("failed reload left the predicate declared")
	}
	// And a good Reload of the same name works from scratch.
	if _, err := db.Reload(fresh, []term.Term{pt(t, "fresh(ok)")}); err != nil {
		t.Fatalf("reload after failure: %v", err)
	}
	if !db.Dynamic(fresh) {
		t.Fatal("reload did not declare the predicate")
	}
}

// TestStoreReloadAndBoundedSolve covers the clause store's Reload
// front and a solve cut off after max solutions.
func TestStoreReloadAndBoundedSolve(t *testing.T) {
	db, p := mustDB(t, colorSrc), newPool()
	pi := term.Ind("color", 1)
	if _, err := db.Reload(pi, []term.Term{pt(t, "color(cyan)"), pt(t, "color(teal)")}); err != nil {
		t.Fatalf("reload: %v", err)
	}
	wantSols(t, solve(t, p, db, "color(X)", 0), "X=cyan", "X=teal")
	wantSols(t, solve(t, p, db, "color(X)", 1), "X=cyan")
	if _, err := db.Reload(pi, []term.Term{pt(t, ":- broken")}); !errors.Is(err, dyndb.ErrBadClause) {
		t.Fatalf("bad reload: %v", err)
	}
	// The failed reload changed nothing.
	wantSols(t, solve(t, p, db, "color(X)", 0), "X=cyan", "X=teal")
}

// TestMaterializeRejectsForeignFrontier: a machine whose code frontier
// is not the database's boot frontier — one booted from some other
// image — cannot take this database's delta.
func TestMaterializeRejectsForeignFrontier(t *testing.T) {
	db := mustDB(t, colorSrc)
	if _, err := db.Assertz(pt(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	foreign := `
f1(a). f2(b). f3(c). f4(d). f5(e).
g(X) :- f1(X), f2(X), f3(X), f4(X), f5(X).
`
	im, _, err := core.MustLoad(foreign).BaseImage()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(m); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("foreign frontier: %v", err)
	}
}
