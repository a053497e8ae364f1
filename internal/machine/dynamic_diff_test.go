package machine_test

// The differential gate for runtime code mutation: a program compiled
// statically and the same program built clause-by-clause through the
// dynamic database's assert path must be indistinguishable to a
// caller — identical solution sets in identical order, and, once both
// machines are warm, identical simulated cycle and cache counters.
// The second half is the strong claim: the assert-built image carries
// stub blocks and, until its tail compacts, the dead remnants of
// per-mutation rebuilds, laid out at different addresses than the
// static image, so equal warm counters mean the dynamic compiler emits
// the same instruction streams and the memory system's behaviour is
// layout-independent once everything is cache-resident.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/term"
)

// diffPrograms: three suite programs, seven dynamic predicates, two
// goals each. Every predicate is declared dynamic so the assert-built
// twin can construct the whole program at runtime.
var diffPrograms = []struct {
	name  string
	src   string
	goals []string
}{
	{
		name: "colors",
		src: `
:- dynamic(color/1).
:- dynamic(likes/1).
color(red).
color(green).
color(blue).
likes(X) :- color(X).
`,
		goals: []string{"likes(X).", "color(blue)."},
	},
	{
		name: "lists",
		src: `
:- dynamic(app/3).
:- dynamic(nrev/2).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`,
		goals: []string{"nrev([a,b,c,d,e,f], R).", "app(X, Y, [1,2,3])."},
	},
	{
		name: "family",
		src: `
:- dynamic(parent/2).
:- dynamic(anc/2).
:- dynamic(member/2).
parent(a, b).
parent(b, c).
parent(c, d).
anc(X, Y) :- parent(X, Y).
anc(X, Z) :- parent(X, Y), anc(Y, Z).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`,
		goals: []string{"anc(a, X).", "member(X, [r,s,t])."},
	},
}

// enumerate drives one complete enumeration of the goal loaded at
// entry and renders every solution's bindings.
func enumerate(t *testing.T, m *machine.Machine, entry uint32, vars map[term.Var]int) ([]string, machine.Result) {
	t.Helper()
	var sols []string
	m.Begin(entry)
	for {
		st, err := m.RunFor(context.Background(), machine.DefaultBudget)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if st == machine.Suspended {
			t.Fatalf("suspended on a %d-step budget", machine.DefaultBudget)
		}
		res := m.Result()
		if !res.Success {
			return sols, res
		}
		sols = append(sols, renderBindings(m.QueryBindings(vars)))
	}
}

func renderBindings(b map[term.Var]term.Term) string {
	parts := make([]string, 0, len(b))
	for v, val := range b {
		parts = append(parts, fmt.Sprintf("%s=%s", v, val))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// runStatic compiles the program the classic way and runs the goal
// twice on one machine: a cold pass to warm caches and predecode,
// then the measured pass after Reset.
func runStatic(t *testing.T, src, goal string) ([]string, machine.Result) {
	t.Helper()
	im, err := core.MustLoad(src).CompileQuery(goal)
	if err != nil {
		t.Fatalf("static compile: %v", err)
	}
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		t.Fatal("static image lost its query entry")
	}
	enumerate(t, m, entry, im.QueryVars)
	m.Reset()
	return enumerate(t, m, entry, im.QueryVars)
}

// enumerateSession drives a leased session through one complete
// enumeration like enumerate, then releases it. The Result is the
// final failed outcome's, so it covers the whole enumeration.
func enumerateSession(t *testing.T, s *engine.Session) ([]string, machine.Result) {
	t.Helper()
	defer s.Close()
	var sols []string
	for s.Next(context.Background()) {
		sols = append(sols, renderBindings(s.Solution().Vars))
	}
	if err := s.Err(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if s.Suspended() {
		t.Fatalf("suspended on a %d-step budget", machine.DefaultBudget)
	}
	return sols, s.Solution().Result
}

// runAsserted builds the same program clause by clause through the
// dynamic database — every predicate chain grows one assertz at a
// time, with a full rebuild and re-admission per mutation — then runs
// the goal twice like runStatic, on the path kcmd serves: two leases
// of one compiled goal on a one-machine pool, the first warming the
// machine, the second measured.
func runAsserted(t *testing.T, src, goal string) ([]string, machine.Result) {
	t.Helper()
	im, ds, err := core.MustLoad(src).BaseImage()
	if err != nil {
		t.Fatalf("base image: %v", err)
	}
	db, err := dyndb.New(im, ds.Order)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range ds.Order {
		for _, cl := range ds.Clauses[pi] {
			if _, err := db.Assertz(cl); err != nil {
				t.Fatalf("assertz %v: %v", pi, err)
			}
		}
	}
	gt, err := reader.ParseTerm(goal)
	if err != nil {
		t.Fatalf("goal %q: %v", goal, err)
	}
	g, err := engine.CompileGoal(db.Syms(), gt)
	if err != nil {
		t.Fatalf("compile goal: %v", err)
	}
	pool := engine.New(engine.WithPoolSize(1))
	lease := func() ([]string, machine.Result) {
		s, err := pool.BeginGoal(context.Background(), db, g, engine.WithBudget(machine.DefaultBudget))
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		return enumerateSession(t, s)
	}
	lease() // warm the pool's one machine
	return lease()
}

func TestDynamicDifferential(t *testing.T) {
	for _, p := range diffPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, goal := range p.goals {
				sSols, sRes := runStatic(t, p.src, goal)
				dSols, dRes := runAsserted(t, p.src, goal)

				if len(sSols) == 0 {
					t.Fatalf("%s: static run found no solutions — the goal exercises nothing", goal)
				}
				if strings.Join(sSols, ";") != strings.Join(dSols, ";") {
					t.Errorf("%s: solution sets differ\n static: %v\n dynamic: %v", goal, sSols, dSols)
					continue
				}
				if sRes.Stats != dRes.Stats {
					t.Errorf("%s: warm machine counters differ\n static: %+v\n dynamic: %+v", goal, sRes.Stats, dRes.Stats)
				}
				if sRes.CCache != dRes.CCache {
					t.Errorf("%s: warm code-cache counters differ\n static: %+v\n dynamic: %+v", goal, sRes.CCache, dRes.CCache)
				}
				if sRes.DCache != dRes.DCache {
					t.Errorf("%s: warm data-cache counters differ\n static: %+v\n dynamic: %+v", goal, sRes.DCache, dRes.DCache)
				}
			}
		})
	}
}
