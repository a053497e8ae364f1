package repro

// The serving differential gate. kcmd runs every goal as a block
// linked above its program's seed database (engine.Pool.BeginGoal);
// core.Program.Query, kcmbench and the paper tables compile the
// program and the goal into one whole image (engine.Pool.Begin on
// core.Program.CompileQuery). For a program without dynamic predicates
// the two paths must be indistinguishable to a client: the same
// bindings in the same order and byte-identical machine.Result
// counters, on a fresh machine's first (cold) run and on a repeat
// (warm) run. That holds because the base image followed by the goal
// block at its frontier is the whole image's code layout. A program
// with dynamic predicates keeps its initial clauses in the seed's
// tail instead, so only its solutions must agree.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
)

// demoSrc is the program kcmd -demo serves: one dynamic predicate with
// an initial clause beside static list predicates.
const demoSrc = `
:- dynamic(color/1).
color(white).
likes(X) :- color(X).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`

// seedOf builds a program's seed database as the kcmd server does: the
// base image, then the source's initial dynamic clauses.
func seedOf(tb testing.TB, src string) *dyndb.DB {
	tb.Helper()
	im, ds, err := core.MustLoad(src).BaseImage()
	if err != nil {
		tb.Fatal(err)
	}
	seed, err := dyndb.New(im, ds.Order)
	if err != nil {
		tb.Fatal(err)
	}
	for _, pi := range ds.Order {
		if cls := ds.Clauses[pi]; len(cls) > 0 {
			if _, err := seed.Reload(pi, cls); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return seed
}

// goalOf compiles goal text for the databases over seed's base image.
func goalOf(tb testing.TB, seed *dyndb.DB, text string) *engine.Goal {
	tb.Helper()
	t, err := reader.ParseTerm(text)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := engine.CompileGoal(seed.Syms(), t)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// servedRun is one complete enumeration: every solution rendered, and
// the counters after each solution and at exhaustion.
type servedRun struct {
	sols []string
	res  []machine.Result
}

// enumerate drives a session to exhaustion and closes it.
func enumerate(tb testing.TB, s *engine.Session) servedRun {
	tb.Helper()
	defer s.Close()
	var run servedRun
	for s.Next(context.Background()) {
		run.sols = append(run.sols, s.Solution().String())
		run.res = append(run.res, s.Solution().Result)
	}
	if s.Err() != nil || s.Suspended() {
		tb.Fatalf("enumeration stopped early: err=%v suspended=%v", s.Err(), s.Suspended())
	}
	run.res = append(run.res, s.Result())
	return run
}

// wholeAndServed enumerates goal once per run on each path, each path
// on its own fresh 1-machine pool, and returns the runs in order.
func wholeAndServed(t *testing.T, src, goal string, runs int) (whole, served []servedRun) {
	t.Helper()
	ctx := context.Background()
	im, err := core.MustLoad(src).CompileQuery(goal)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedOf(t, src)
	g := goalOf(t, seed, goal)
	wp, sp := engine.New(engine.WithPoolSize(1)), engine.New(engine.WithPoolSize(1))
	for i := 0; i < runs; i++ {
		s, err := wp.Begin(ctx, im)
		if err != nil {
			t.Fatal(err)
		}
		whole = append(whole, enumerate(t, s))
		if s, err = sp.BeginGoal(ctx, seed, g); err != nil {
			t.Fatal(err)
		}
		served = append(served, enumerate(t, s))
	}
	return whole, served
}

func TestServingDifferential(t *testing.T) {
	nrev, _ := bench.ByName("nrev1")
	queens, _ := bench.ByName("queens")
	for _, c := range []struct {
		name, src, goal string
		sols            int
	}{
		{"nrev30", nrev.Source, "list30(L), nrev(L, R).", 1},
		{"queens6", queens.Source, "queens(6, Qs).", 4},
		{"zebra", zebraSrc, "zebra(Owner).", 1},
		{"member8", zebraSrc, "member(X, [a,b,c,d,e,f,g,h]).", 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			whole, served := wholeAndServed(t, c.src, c.goal, 2)
			for i, run := range []string{"cold", "warm"} {
				if len(whole[i].sols) != c.sols {
					t.Fatalf("%s: whole image found %d solutions, want %d", run, len(whole[i].sols), c.sols)
				}
				if !slices.Equal(served[i].sols, whole[i].sols) {
					t.Fatalf("%s: solutions differ\n whole:  %v\n served: %v", run, whole[i].sols, served[i].sols)
				}
				if !reflect.DeepEqual(served[i].res, whole[i].res) {
					t.Errorf("%s: counters differ\n whole:  %+v\n served: %+v", run, whole[i].res, served[i].res)
				}
			}
		})
	}
	// The kcmd demo program's dynamic clause sits in the seed's tail on
	// the served path: solutions agree, counters need not.
	for _, goal := range []string{"likes(X).", "color(X).", "nrev([1,2,3], R), member(X, R)."} {
		whole, served := wholeAndServed(t, demoSrc, goal, 1)
		if len(whole[0].sols) == 0 || !slices.Equal(served[0].sols, whole[0].sols) {
			t.Errorf("demo %s: solutions differ\n whole:  %v\n served: %v", goal, whole[0].sols, served[0].sols)
		}
	}
}
