package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
)

const nrevSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`

// zebraSrc is the five-houses puzzle, the suite's "real-size" deep
// search (also used by internal/core's tests; test fixtures are not
// importable across packages).
const zebraSrc = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
next_to(A, B, L) :- right_of(A, B, L).
next_to(A, B, L) :- right_of(B, A, L).
right_of(R, L, [L, R | _]).
right_of(R, L, [_ | T]) :- right_of(R, L, T).
first(X, [X | _]).
middle(X, [_, _, X, _, _]).
zebra(Owner) :-
    Houses = [_, _, _, _, _],
    member(house(red, english, _, _, _), Houses),
    right_of(house(green, _, _, _, _), house(ivory, _, _, _, _), Houses),
    first(house(_, norwegian, _, _, _), Houses),
    middle(house(_, _, milk, _, _), Houses),
    member(house(_, spanish, _, _, dog), Houses),
    member(house(green, _, coffee, _, _), Houses),
    member(house(_, ukrainian, tea, _, _), Houses),
    member(house(_, _, _, oldgold, snails), Houses),
    member(house(yellow, _, _, kools, _), Houses),
    next_to(house(_, _, _, chesterfield, _), house(_, _, _, _, fox), Houses),
    next_to(house(_, _, _, kools, _), house(_, _, _, _, horse), Houses),
    member(house(_, _, orangejuice, luckystrike, _), Houses),
    member(house(_, japanese, _, parliament, _), Houses),
    next_to(house(blue, _, _, _, _), house(_, norwegian, _, _, _), Houses),
    member(house(_, _, water, _, _), Houses),
    member(house(_, Owner, _, _, zebra), Houses).
`

// compileImage compiles src+query into a pool-servable image.
func compileImage(t *testing.T, src, query string) *asm.Image {
	t.Helper()
	im, err := core.MustLoad(src).CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// runToHalt boots m at entry and runs it to halt or fault.
func runToHalt(m *machine.Machine, entry uint32) (machine.Result, error) {
	m.Begin(entry)
	_, err := m.RunFor(nil, 0)
	return m.Result(), err
}

// firstSolution runs im to its first solution on one Begin session and
// releases the machine: a one-shot pooled query. A session that stops
// on its step budget is an error here; TestPoolBudget holds one.
func firstSolution(ctx context.Context, p *engine.Pool, im *asm.Image, options ...engine.Option) (*core.Solution, error) {
	s, err := p.Begin(ctx, im, options...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if !s.Next(ctx) {
		if s.Err() != nil {
			return nil, s.Err()
		}
		if s.Suspended() {
			return nil, errors.New("query suspended on its step budget")
		}
	}
	return s.Solution(), nil
}

// TestPoolParity is the byte-identical guarantee at the pool level: a
// single query served by a pooled machine reports exactly the
// simulated cycle counts and cache statistics of a dedicated machine
// run with Begin and RunFor — cold (first query on a fresh machine)
// and warm (second query on the same machine).
func TestPoolParity(t *testing.T) {
	im := compileImage(t, nrevSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R).")
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		t.Fatal("no entry")
	}

	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runToHalt(m, entry)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	warm, err := runToHalt(m, entry)
	if err != nil {
		t.Fatal(err)
	}

	pool := engine.New(engine.WithPoolSize(1)) // one machine: 2nd query reuses it
	for i, want := range []machine.Result{cold, warm} {
		sol, err := firstSolution(context.Background(), pool, im)
		if err != nil {
			t.Fatal(err)
		}
		got := sol.Result
		if got.Stats != want.Stats {
			t.Fatalf("query %d: stats differ:\npool   %+v\ndirect %+v", i, got.Stats, want.Stats)
		}
		if got.DCache != want.DCache || got.CCache != want.CCache {
			t.Fatalf("query %d: cache stats differ:\npool   %+v %+v\ndirect %+v %+v",
				i, got.DCache, got.CCache, want.DCache, want.CCache)
		}
		if sol.Vars["R"].String() != "[10,9,8,7,6,5,4,3,2,1]" {
			t.Fatalf("query %d: R = %v", i, sol.Vars["R"])
		}
	}
}

// TestPoolRace hammers one pool from 8 goroutines with a mix of
// nrev, queens and zebra queries; every answer must match the
// single-threaded result for its program. Run under -race this is the
// safety check for image sharing across concurrent machines.
func TestPoolRace(t *testing.T) {
	queens, ok := bench.ByName("queens")
	if !ok {
		t.Fatal("no queens program in the suite")
	}
	type job struct {
		im   *asm.Image
		want string // expected Solution.String()
	}
	var jobs []job
	for _, pq := range []struct{ src, query string }{
		{nrevSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R)."},
		{queens.Source, "queens(6, Qs)."},
		{zebraSrc, "zebra(Owner)."},
	} {
		prog := core.MustLoad(pq.src)
		sol, err := prog.Query(pq.query)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Success {
			t.Fatalf("%q failed single-threaded", pq.query)
		}
		im, err := prog.CompileQuery(pq.query)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{im: im, want: sol.String()})
	}

	pool := engine.New(engine.WithPoolSize(4)) // 8 goroutines on 4 machines/image
	const goroutines, rounds = 8, 5
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(g+r)%len(jobs)]
				sol, err := firstSolution(context.Background(), pool, j.im)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				if got := sol.String(); got != j.want {
					errs <- fmt.Errorf("goroutine %d round %d: %s, want %s", g, r, got, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolBudget: a pooled session that exhausts its budget suspends,
// and closing it leaves the pool healthy for the next query.
func TestPoolBudget(t *testing.T) {
	spin := compileImage(t, "spin :- spin.\n", "spin.")
	good := compileImage(t, nrevSrc, "nrev([1,2], R).")
	pool := engine.New(engine.WithPoolSize(1))
	ctx := context.Background()
	s, err := pool.Begin(ctx, spin, engine.WithBudget(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if s.Next(ctx) || !s.Suspended() || s.Err() != nil {
		t.Fatalf("spin session: suspended=%v err=%v, want a budget suspension", s.Suspended(), s.Err())
	}
	s.Close()
	sol, err := firstSolution(ctx, pool, good)
	if err != nil || !sol.Success {
		t.Fatalf("pool unhealthy after budget fault: %v %v", sol, err)
	}
}
