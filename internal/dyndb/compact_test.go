package dyndb_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/term"
)

// checkTailBound fails the test unless the database's tail is within
// the compaction bound, and returns the tail length.
func checkTailBound(t *testing.T, db *dyndb.DB) int {
	t.Helper()
	tail, bound := db.TailBound()
	if tail > bound {
		t.Fatalf("tail %d words, compaction bound %d", tail, bound)
	}
	return tail
}

// TestCompactionBoundsTail runs 10,000 assert/retract pairs on one
// tenant. Without compaction every mutation would leave its replaced
// block behind; with it the tail stays within the bound after every
// mutation, and a machine materialised from the result needs no more
// code space than the bound allows above the base.
func TestCompactionBoundsTail(t *testing.T) {
	db := mustDB(t, colorSrc)
	for _, c := range []string{"color(red)", "color(green)", "color(blue)"} {
		if _, err := db.Assertz(pt(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	extra := pt(t, "color(extra)")
	compactions, prev := 0, checkTailBound(t, db)
	step := func() {
		// A mutation appends a block; only a compaction shrinks the tail.
		tail := checkTailBound(t, db)
		if tail < prev {
			compactions++
		}
		prev = tail
	}
	for i := 0; i < 10_000; i++ {
		if _, err := db.Assertz(extra); err != nil {
			t.Fatalf("pair %d: assertz: %v", i, err)
		}
		step()
		if ok, _, err := db.Retract(extra); err != nil || !ok {
			t.Fatalf("pair %d: retract: ok=%v err=%v", i, ok, err)
		}
		step()
	}
	if compactions < 100 {
		t.Fatalf("%d compactions over 20,000 mutations", compactions)
	}

	_, bound := db.TailBound()
	m, err := machine.New(db.Image(), machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.Materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	baseTop := len(db.Image().Code)
	if top := int(view.Top); top > baseTop+bound {
		t.Fatalf("materialised frontier %d, want <= %d (base %d + bound %d)",
			top, baseTop+bound, baseTop, bound)
	}
	wantSols(t, solve(t, newPool(), db, "likes(X)", 0), "X=red", "X=green", "X=blue")
}

// TestCompactionKeepsCallSites churns one predicate across many
// compactions while every kind of caller watches it: a static base
// clause (an overlay word), a dynamic rule whose call site lives in
// the tail, a dynamic rule whose disjunction compiles to auxiliary
// entries, and call/1 through the meta-call table. The disjunctive
// rule is rebuilt now and then, so compaction moves its auxiliary
// entries too.
func TestCompactionKeepsCallSites(t *testing.T) {
	db, p := mustDB(t, `
:- dynamic(s/1).
:- dynamic(r/1).
:- dynamic(d/1).
base(X) :- s(X).
`), newPool()
	dRule := pt(t, "d(X) :- ( s(X) ; X = none )")
	for _, c := range []term.Term{pt(t, "s(a0)"), pt(t, "r(X) :- s(X)"), dRule} {
		if _, err := db.Assertz(c); err != nil {
			t.Fatal(err)
		}
	}
	model := []string{"X=a0"}
	compactions, prev := 0, checkTailBound(t, db)
	for i := 1; i <= 60; i++ {
		if _, err := db.Assertz(pt(t, fmt.Sprintf("s(a%d)", i))); err != nil {
			t.Fatal(err)
		}
		model = append(model, fmt.Sprintf("X=a%d", i))
		if i%3 == 0 {
			if ok, _, err := db.Retract(pt(t, "s("+model[0][2:]+")")); err != nil || !ok {
				t.Fatalf("retract %s: ok=%v err=%v", model[0], ok, err)
			}
			model = model[1:]
		}
		if i%5 == 0 {
			if _, err := db.Reload(term.Ind("d", 1), []term.Term{dRule}); err != nil {
				t.Fatal(err)
			}
		}
		tail := checkTailBound(t, db)
		if tail < prev {
			compactions++
		}
		prev = tail
		for _, g := range []string{"base(X)", "r(X)", "call(s(X))"} {
			wantSols(t, solve(t, p, db, g, 0), model...)
		}
		wantSols(t, solve(t, p, db, "d(X)", 0), append(slices.Clone(model), "X=none")...)
	}
	if compactions < 5 {
		t.Fatalf("%d compactions over the churn, want several", compactions)
	}
}
