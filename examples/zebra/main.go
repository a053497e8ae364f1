// The zebra puzzle (Einstein's riddle) on the KCM: a "real-size"
// pure-unification search of the kind the paper's section 5 schedules
// for further evaluation. Five houses, fifteen constraints, one
// solution — and a heavy workout for shallow backtracking, indexing
// and the trail.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
)

const program = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

next_to(A, B, L) :- right_of(A, B, L).
next_to(A, B, L) :- right_of(B, A, L).

right_of(R, L, [L, R | _]).
right_of(R, L, [_ | T]) :- right_of(R, L, T).

first(X, [X | _]).
middle(X, [_, _, X, _, _]).

% house(Color, Nation, Drink, Smoke, Pet)
zebra(Owner, Houses) :-
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

func main() {
	prog, err := core.Load(program)
	if err != nil {
		log.Fatal(err)
	}
	pr := trace.NewProfiler()
	sol, err := prog.Query("zebra(Owner, Houses).", core.WithTrace(pr))
	if err != nil {
		log.Fatal(err)
	}
	if !sol.Success {
		log.Fatal("no solution — the puzzle is broken")
	}
	owner, _ := sol.Binding("Owner")
	houses, _ := sol.Binding("Houses")
	fmt.Println("the zebra belongs to:", owner)
	fmt.Println("street:", houses)

	s := sol.Result.Stats
	fmt.Printf("\n%d inferences in %.3f ms (%.0f Klips), %d cycles\n",
		s.Inferences, s.Millis(), s.Klips(), s.Cycles)
	fmt.Printf("shallow fails %d, deep fails %d, choice points %d, trail pushes %d\n",
		s.ShallowFails, s.DeepFails, s.ChoicePoints, s.TrailPushes)
	fmt.Println("\nper-predicate cycle profile:")
	trace.RenderProfile(os.Stdout, pr.Rows(), pr.Total())
}
