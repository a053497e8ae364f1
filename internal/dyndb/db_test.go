package dyndb_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/reader"
	"repro/internal/term"
)

// mustDB compiles src through core.BaseImage and seeds a database
// with the declared dynamic predicates' initial clauses.
func mustDB(t *testing.T, src string) *dyndb.DB {
	t.Helper()
	p := core.MustLoad(src)
	im, ds, err := p.BaseImage()
	if err != nil {
		t.Fatalf("BaseImage: %v", err)
	}
	db, err := dyndb.New(im, ds.Order)
	if err != nil {
		t.Fatalf("dyndb.New: %v", err)
	}
	for _, pi := range ds.Order {
		if cls := ds.Clauses[pi]; len(cls) > 0 {
			if _, err := db.Reload(pi, cls); err != nil {
				t.Fatalf("seed %v: %v", pi, err)
			}
		}
	}
	return db
}

// newPool returns a one-machine engine pool. Tests solve through it
// the way kcmd serves a database: BeginDyn installs the database's
// current version on the leased machine. Each test or fuzz input
// builds one pool and solves every goal on it, because every pool
// builds its own 32 MB machine.
func newPool() *engine.Pool { return engine.New(engine.WithPoolSize(1)) }

func pt(t *testing.T, src string) term.Term {
	t.Helper()
	if !strings.HasSuffix(src, ".") {
		src += " ."
	}
	tm, err := reader.ParseTerm(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return tm
}

// solve leases db on p, collects up to max solutions of goal (0 =
// all) and renders each solution's bindings in a stable "X=v,Y=w"
// form.
func solve(t *testing.T, p *engine.Pool, db *dyndb.DB, goal string, max int) []string {
	t.Helper()
	ctx := context.Background()
	s, err := p.BeginDyn(ctx, db, pt(t, goal))
	if err != nil {
		t.Fatalf("solve %q: %v", goal, err)
	}
	defer s.Close()
	var out []string
	for (max == 0 || len(out) < max) && s.Next(ctx) {
		b := s.Solution().Vars
		names := make([]string, 0, len(b))
		for v := range b {
			names = append(names, string(v))
		}
		sort.Strings(names)
		var parts []string
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%v", n, b[term.Var(n)]))
		}
		out = append(out, strings.Join(parts, ","))
	}
	if s.Err() != nil || s.Suspended() {
		t.Fatalf("solve %q: err=%v suspended=%v", goal, s.Err(), s.Suspended())
	}
	return out
}

func wantSols(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("solutions: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solution %d: got %v, want %v", i, got, want)
		}
	}
}

const colorSrc = `
:- dynamic(color/1).
likes(X) :- color(X).
`

func TestAssertQueryRetract(t *testing.T) {
	db, p := mustDB(t, colorSrc), newPool()

	// Empty chain: the fail stub backtracks like any exhausted pred.
	wantSols(t, solve(t, p, db, "likes(X).", 0))

	for _, c := range []string{"color(red)", "color(green)"} {
		if _, err := db.Assertz(pt(t, c)); err != nil {
			t.Fatalf("assertz %s: %v", c, err)
		}
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=red", "X=green")

	// Asserta prepends.
	if _, err := db.Asserta(pt(t, "color(blue)")); err != nil {
		t.Fatalf("asserta: %v", err)
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=blue", "X=red", "X=green")

	// Retract removes the first variant match.
	ok, _, err := db.Retract(pt(t, "color(red)"))
	if err != nil || !ok {
		t.Fatalf("retract: ok=%v err=%v", ok, err)
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=blue", "X=green")

	// Retracting a clause that is not there reports false.
	ok, _, err = db.Retract(pt(t, "color(red)"))
	if err != nil || ok {
		t.Fatalf("retract missing: ok=%v err=%v", ok, err)
	}

	// Down to empty again: back to the stub semantics.
	for _, c := range []string{"color(blue)", "color(green)"} {
		if ok, _, err := db.Retract(pt(t, c)); err != nil || !ok {
			t.Fatalf("retract %s: ok=%v err=%v", c, ok, err)
		}
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0))
	if cls := db.Clauses(term.Ind("color", 1)); len(cls) != 0 {
		t.Fatalf("chain not empty: %v", cls)
	}
}

func TestFirstArgIndexingRegenerated(t *testing.T) {
	db, p := mustDB(t, ":- dynamic(p/2).\n"), newPool()
	for _, c := range []string{"p(a,1)", "p(b,2)", "p(a,3)", "p(c,4)"} {
		if _, err := db.Assertz(pt(t, c)); err != nil {
			t.Fatalf("assertz %s: %v", c, err)
		}
	}
	// Bound first argument goes through the regenerated
	// switch_on_const dispatch; only the matching bucket enumerates.
	wantSols(t, solve(t, p, db, "p(a,X).", 0), "X=1", "X=3")
	wantSols(t, solve(t, p, db, "p(b,X).", 0), "X=2")
	wantSols(t, solve(t, p, db, "p(q,X).", 0))
	// Unbound first argument still tries every clause in chain order.
	wantSols(t, solve(t, p, db, "p(X,Y).", 0), "X=a,Y=1", "X=b,Y=2", "X=a,Y=3", "X=c,Y=4")
}

func TestRecursiveDynamicPredicate(t *testing.T) {
	db, p := mustDB(t, ":- dynamic(count/1).\n"), newPool()
	if _, err := db.Assertz(pt(t, "count(z)")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assertz(pt(t, "count(s(X)) :- count(X)")); err != nil {
		t.Fatal(err)
	}
	// The recursive self-call must target the rebuilt block, not a
	// stale one.
	wantSols(t, solve(t, p, db, "count(s(s(s(z)))).", 0), "")
	wantSols(t, solve(t, p, db, "count(X).", 2), "X=z", "X=s(z)")
}

func TestInitialClausesSeeded(t *testing.T) {
	db, p := mustDB(t, `
:- dynamic(fact/2).
fact(one, 1).
fact(two, 2).
sum(X) :- fact(_, X).
`), newPool()
	wantSols(t, solve(t, p, db, "sum(X).", 0), "X=1", "X=2")
	if _, err := db.Assertz(pt(t, "fact(three, 3)")); err != nil {
		t.Fatal(err)
	}
	wantSols(t, solve(t, p, db, "sum(X).", 0), "X=1", "X=2", "X=3")
}

func TestOnTheFlyDeclaration(t *testing.T) {
	db, p := mustDB(t, "p(1).\n"), newPool()
	// q/1 is unknown to the base image: asserting declares it.
	if _, err := db.Assertz(pt(t, "q(7)")); err != nil {
		t.Fatalf("assert to fresh predicate: %v", err)
	}
	wantSols(t, solve(t, p, db, "q(X).", 0), "X=7")
	if !db.Dynamic(term.Ind("q", 1)) {
		t.Fatal("q/1 not marked dynamic")
	}
}

func TestStaticPredicateRejected(t *testing.T) {
	db, p := mustDB(t, "p(1).\n"), newPool()
	if _, err := db.Assertz(pt(t, "p(2)")); !errors.Is(err, dyndb.ErrStaticPred) {
		t.Fatalf("assert to static pred: err=%v, want ErrStaticPred", err)
	}
	if _, _, err := db.Retract(pt(t, "p(1)")); !errors.Is(err, dyndb.ErrStaticPred) {
		t.Fatalf("retract from static pred: err=%v, want ErrStaticPred", err)
	}
	if _, err := db.Reload(term.Ind("p", 1), nil); !errors.Is(err, dyndb.ErrStaticPred) {
		t.Fatalf("reload static pred: err=%v, want ErrStaticPred", err)
	}
	// A lease still answers after every rejection.
	wantSols(t, solve(t, p, db, "p(X).", 0), "X=1")
}

func TestMalformedClausesRejected(t *testing.T) {
	db, p := mustDB(t, colorSrc), newPool()
	if _, err := db.Assertz(pt(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	// Install this version on the pool's machine before the rejections.
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=red")
	for _, bad := range []string{
		":- dynamic(q/1)",               // a directive is not a clause
		"color(X) :- undefined_goal(X)", // unknown body goal fails the link
	} {
		if _, err := db.Assertz(pt(t, bad)); !errors.Is(err, dyndb.ErrBadClause) {
			t.Fatalf("assert %q: err=%v, want ErrBadClause", bad, err)
		}
	}
	// Non-callable heads never parse from source; build the terms
	// directly.
	for _, bad := range []term.Term{
		term.Int(42),
		term.Var("X"),
		&term.Compound{Functor: ":-", Args: []term.Term{term.Int(1), term.Atom("true")}},
	} {
		if _, err := db.Assertz(bad); !errors.Is(err, dyndb.ErrBadClause) {
			t.Fatalf("assert %v: err=%v, want ErrBadClause", bad, err)
		}
	}
	// Database and machine state survived every rejection unchanged.
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=red")
	if got := len(db.Clauses(term.Ind("color", 1))); got != 1 {
		t.Fatalf("chain length after rejections: %d", got)
	}
}

func TestCloneIsolation(t *testing.T) {
	db := mustDB(t, colorSrc)
	if _, err := db.Assertz(pt(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	c := db.Clone()
	if _, err := c.Assertz(pt(t, "color(green)")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Retract(pt(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Clauses(term.Ind("color", 1))); got != 0 {
		t.Fatalf("original chain: %d clauses, want 0", got)
	}
	cls := c.Clauses(term.Ind("color", 1))
	if len(cls) != 2 || cls[0].String() != "color(red)" || cls[1].String() != "color(green)" {
		t.Fatalf("clone chain: %v", cls)
	}

	// Both views run correctly, leased in turn on one machine.
	p := newPool()
	wantSols(t, solve(t, p, db, "likes(X).", 0))
	wantSols(t, solve(t, p, c, "likes(X).", 0), "X=red", "X=green")
}

func TestStoreTracksConcurrentlyMutatedDB(t *testing.T) {
	// Two machines over one database: a mutation is visible to both
	// (the laggard reinstalls on its next lease). A held session pins
	// one machine of the pool, so the next lease lands on the other.
	db := mustDB(t, colorSrc)
	p := engine.New(engine.WithPoolSize(2))
	ctx := context.Background()
	a, err := p.BeginDyn(ctx, db, pt(t, "likes(X)."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assertz(pt(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=red")
	b, err := p.BeginDyn(ctx, db, pt(t, "likes(X)."))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := db.Assertz(pt(t, "color(green)")); err != nil {
		t.Fatal(err)
	}
	wantSols(t, solve(t, p, db, "likes(X).", 0), "X=red", "X=green")
	b.Close()
	if st := p.Stats(); st.Built != 2 {
		t.Fatalf("pool built %d machines, want 2", st.Built)
	}
}

func TestVersionAdvancesPerMutation(t *testing.T) {
	db := mustDB(t, colorSrc)
	v0 := db.Version()
	v1, err := db.Assertz(pt(t, "color(red)"))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0+1 {
		t.Fatalf("version after assert: %d, want %d", v1, v0+1)
	}
	// A failed mutation leaves the version alone.
	if _, err := db.Assertz(term.Int(3)); err == nil {
		t.Fatal("want error")
	}
	if got := db.Version(); got != v1 {
		t.Fatalf("version after rejected assert: %d, want %d", got, v1)
	}
	ok, v2, err := db.Retract(pt(t, "color(red)"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if v2 != v1+1 {
		t.Fatalf("version after retract: %d, want %d", v2, v1+1)
	}
	// A no-op retract leaves the version alone.
	if _, v3, _ := db.Retract(pt(t, "color(red)")); v3 != v2 {
		t.Fatalf("version after no-op retract: %d, want %d", v3, v2)
	}
}

func TestStaticCallerRetargeted(t *testing.T) {
	// likes/1 is compiled statically against the color/1 stub. As the
	// chain is rebuilt again and again, the static call site must keep
	// following the moving entry (via the copy-on-write overlay).
	db, p := mustDB(t, colorSrc), newPool()
	for i := 0; i < 10; i++ {
		if _, err := db.Assertz(pt(t, fmt.Sprintf("color(c%d)", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := solve(t, p, db, "likes(X).", 0)
	want := make([]string, 10)
	for i := range want {
		want[i] = fmt.Sprintf("X=c%d", i)
	}
	wantSols(t, got, want...)
}
