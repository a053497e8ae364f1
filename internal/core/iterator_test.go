package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

const iterSrc = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
spin :- spin.
`

// collect drains an iterator into the String() forms of its solutions.
func collect(t *testing.T, it *Solutions) []string {
	t.Helper()
	var got []string
	for it.Next() {
		got = append(got, it.Solution().String())
	}
	if it.Err() != nil {
		t.Fatalf("iterate: %v", it.Err())
	}
	return got
}

// TestSolutionsEnumeration: the iterator yields every solution in
// clause order, then reports exhaustion with the final failed outcome
// still carrying the machine counters.
func TestSolutionsEnumeration(t *testing.T) {
	p := MustLoad(iterSrc)
	it, err := p.Solutions("member(X, [1,2,3]).")
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	want := []string{"X = 1", "X = 2", "X = 3"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("solutions %v, want %v", got, want)
	}
	if it.Suspended() {
		t.Fatal("exhausted iterator reports Suspended")
	}
	fin := it.Solution()
	if fin == nil || fin.Success {
		t.Fatalf("final outcome %+v, want failure", fin)
	}
	if fin.Result.Stats.Cycles == 0 {
		t.Fatal("final outcome lost the machine counters")
	}
	// Next after exhaustion stays false and error-free.
	if it.Next() || it.Err() != nil {
		t.Fatalf("Next after exhaustion: %v, %v", it.Next(), it.Err())
	}
}

// TestSolutionsMaxSolutions: WithMaxSolutions stops the enumeration
// after k solutions without an error.
func TestSolutionsMaxSolutions(t *testing.T) {
	p := MustLoad(iterSrc)
	it, err := p.Solutions("member(X, [1,2,3,4,5]).", WithMaxSolutions(2))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 2 || got[0] != "X = 1" || got[1] != "X = 2" {
		t.Fatalf("solutions %v, want [X = 1, X = 2]", got)
	}
}

// TestSolutionsBudgetResume: with WithBudget, a tiny per-Next budget
// suspends the search instead of erroring, and the next Next resumes
// it to the very same solutions an unbounded run yields.
func TestSolutionsBudgetResume(t *testing.T) {
	p := MustLoad(iterSrc)
	it, err := p.Solutions("nrev([1,2,3,4,5,6,7,8], R), member(X, [a,b]).",
		WithBudget(50))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	suspensions := 0
	for {
		if it.Next() {
			got = append(got, it.Solution().String())
			continue
		}
		if it.Suspended() {
			suspensions++
			if suspensions > 1_000_000 {
				t.Fatal("never completed")
			}
			continue
		}
		break
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if suspensions == 0 {
		t.Fatal("budget of 50 never suspended; test is vacuous")
	}
	want := "R = [8,7,6,5,4,3,2,1], X = a; R = [8,7,6,5,4,3,2,1], X = b"
	if s := strings.Join(got, "; "); s != want {
		t.Fatalf("resumed solutions:\n got %s\nwant %s", s, want)
	}
}

// TestQueryLegacyBudgetError: on a one-shot Query, running out of the
// step budget is a hard ErrStepBudget error, not a silent suspension.
func TestQueryLegacyBudgetError(t *testing.T) {
	p := MustLoad(iterSrc)
	_, err := p.Query("spin.", WithBudget(2000))
	if !errors.Is(err, machine.ErrStepBudget) {
		t.Fatalf("got %v, want ErrStepBudget", err)
	}
}

// TestQueryCancellation: a cancelled context surfaces through Query as
// machine.ErrCancelled and keeps the context cause in the chain.
func TestQueryCancellation(t *testing.T) {
	p := MustLoad(iterSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Query("spin.", WithContext(ctx))
	if !errors.Is(err, machine.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause chain lost: %v", err)
	}
}

// TestQueryDeadline: a context deadline stops a divergent query with
// machine.ErrDeadline.
func TestQueryDeadline(t *testing.T) {
	p := MustLoad(iterSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.Query("spin.", WithContext(ctx))
	if !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause chain lost: %v", err)
	}
}

// TestQueryOptionWriter: WithWriter captures write/1 output, and order
// relative to WithConfig follows application order.
func TestQueryOptionWriter(t *testing.T) {
	p := MustLoad(iterSrc)
	var out strings.Builder
	sol, err := p.Query("member(X, [hello]), write(X), nl.",
		WithConfig(machine.Config{}), WithWriter(&out))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Success || out.String() != "hello\n" {
		t.Fatalf("success=%v out=%q", sol.Success, out.String())
	}
}

// TestSolutionViews pins Bindings() and String() on success, no-vars
// and failure outcomes.
func TestSolutionViews(t *testing.T) {
	p := MustLoad(iterSrc)

	sol, err := p.Query("app(Xs, [c], [a,b,c]), nrev([a,b], Ys).")
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.String(); got != "Xs = [a,b], Ys = [b,a]" {
		t.Fatalf("String() = %q", got)
	}
	b := sol.Bindings()
	if len(b) != 2 || b["Xs"].String() != "[a,b]" || b["Ys"].String() != "[b,a]" {
		t.Fatalf("Bindings() = %v", b)
	}

	sol, err = p.Query("member(b, [a,b]).")
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.String(); got != "yes" {
		t.Fatalf("no-vars String() = %q", got)
	}

	sol, err = p.Query("member(z, [a,b]).")
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.String(); got != "no" {
		t.Fatalf("failure String() = %q", got)
	}
	if len(sol.Bindings()) != 0 {
		t.Fatalf("failure Bindings() = %v", sol.Bindings())
	}
}
