package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/reader"
	"repro/internal/term"
)

const tenantSrc = `
:- dynamic(color/1).
likes(X) :- color(X).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
`

// seedDB builds the shared base image and the seed database every
// tenant clones.
func seedDB(t testing.TB, src string) *dyndb.DB {
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

func parse(t testing.TB, src string) term.Term {
	t.Helper()
	tm, err := reader.ParseTerm(src + " .")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return tm
}

// collect enumerates every solution of goal for the tenant and
// renders X bindings.
func collect(t testing.TB, p *engine.Pool, db *dyndb.DB, goal string) []string {
	t.Helper()
	out, err := solutionsX(p, db, parse(t, goal))
	if err != nil {
		t.Fatalf("%q: %v", goal, err)
	}
	return out
}

// solutionsX is collect reporting failures as errors, so client
// goroutines can call it.
func solutionsX(p *engine.Pool, db *dyndb.DB, goal term.Term) ([]string, error) {
	s, err := p.BeginDyn(context.Background(), db, goal)
	if err != nil {
		return nil, fmt.Errorf("BeginDyn: %w", err)
	}
	defer s.Close()
	var out []string
	for s.Next(context.Background()) {
		sol := s.Solution()
		if v, ok := sol.Binding("X"); ok {
			out = append(out, v.String())
		} else {
			out = append(out, "yes")
		}
	}
	if s.Err() != nil {
		return nil, fmt.Errorf("enumerate: %w", s.Err())
	}
	return out, nil
}

func TestTenantIsolation(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(2))

	a := seed.Clone()
	b := seed.Clone()
	if _, err := a.Assertz(parse(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Assertz(parse(t, "color(blue)")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Assertz(parse(t, "color(green)")); err != nil {
		t.Fatal(err)
	}

	// Interleave leases so both tenants visit both machines: any
	// leaked clause would show up in the other tenant's enumeration.
	for i := 0; i < 4; i++ {
		got := collect(t, pool, a, "likes(X)")
		if len(got) != 1 || got[0] != "red" {
			t.Fatalf("tenant a sees %v, want [red]", got)
		}
		got = collect(t, pool, b, "likes(X)")
		if len(got) != 2 || got[0] != "blue" || got[1] != "green" {
			t.Fatalf("tenant b sees %v, want [blue green]", got)
		}
		// The static predicates of the shared base stay callable for
		// both.
		if got := collect(t, pool, a, "app([1], [2], X)"); len(got) != 1 || got[0] != "[1,2]" {
			t.Fatalf("tenant a static query: %v", got)
		}
	}
	st := pool.Stats()
	if st.InUse != 0 {
		t.Fatalf("InUse=%d after all sessions closed, want 0", st.InUse)
	}
}

func TestTenantMutationVisibleAcrossLeases(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(1))
	db := seed.Clone()

	if got := collect(t, pool, db, "likes(X)"); len(got) != 0 {
		t.Fatalf("empty chain sees %v", got)
	}
	if _, err := db.Assertz(parse(t, "color(cyan)")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, pool, db, "likes(X)"); len(got) != 1 || got[0] != "cyan" {
		t.Fatalf("after assert: %v, want [cyan]", got)
	}
	if _, _, err := db.Retract(parse(t, "color(cyan)")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, pool, db, "likes(X)"); len(got) != 0 {
		t.Fatalf("after retract: %v, want []", got)
	}
}

// TestTenantSuspendResume parks a tenant session mid-enumeration and
// resumes it against the same database: the continuation is
// byte-identical. Then the satellite-3 regression: ANY database
// change between park and resume — an assert, and a Reload that rolls
// the predicate back to the exact clause set the blob was parked from
// — must fail typed with ErrStaleDelta, because the delta image the
// blob's code addresses point into has been rebuilt.
func TestTenantSuspendResume(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(2))
	db := seed.Clone()
	colorPI := term.Indicator{Name: "color", Arity: 1}
	for _, c := range []string{"color(red)", "color(green)", "color(blue)"} {
		if _, err := db.Assertz(parse(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	parked := db.Clauses(colorPI) // the clause set the blob will reference

	// Reference: uninterrupted enumeration.
	if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != "red green blue" {
		t.Fatalf("reference enumeration: %v", got)
	}

	// Park after one solution, resume, finish.
	goal := parse(t, "likes(X)")
	s, err := pool.BeginDyn(context.Background(), db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next(context.Background()) {
		t.Fatalf("first solution: err=%v", s.Err())
	}
	if v, _ := s.Solution().Binding("X"); v.String() != "red" {
		t.Fatalf("first solution %v, want red", v)
	}
	blob, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	r, err := pool.ResumeDyn(context.Background(), db, goal, blob)
	if err != nil {
		t.Fatalf("ResumeDyn: %v", err)
	}
	var rest []string
	for r.Next(context.Background()) {
		v, _ := r.Solution().Binding("X")
		rest = append(rest, v.String())
	}
	if r.Err() != nil || strings.Join(rest, " ") != "green blue" {
		t.Fatalf("resumed enumeration: %v (err=%v)", rest, r.Err())
	}
	r.Close()

	// Park again, then mutate: the blob is now stale.
	s2, err := pool.BeginDyn(context.Background(), db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Next(context.Background()) {
		t.Fatal(s2.Err())
	}
	stale, err := s2.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Assertz(parse(t, "color(cyan)")); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ResumeDyn(context.Background(), db, goal, stale); !errors.Is(err, engine.ErrStaleDelta) {
		t.Fatalf("resume after assert: %v, want ErrStaleDelta", err)
	}
	// Roll the predicate back to the exact clause set the blob was
	// parked from. The content matches, but the delta was rebuilt —
	// the version proves it and the resume must still be refused.
	if _, err := db.Reload(colorPI, parked); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ResumeDyn(context.Background(), db, goal, stale); !errors.Is(err, engine.ErrStaleDelta) {
		t.Fatalf("resume after rollback-by-reload: %v, want ErrStaleDelta", err)
	}
	// The database itself must still be healthy after every refusal.
	if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != "red green blue" {
		t.Fatalf("post-refusal enumeration: %v", got)
	}
}

// TestTenantRace runs, concurrently and under -race when the suite
// is: per-tenant mutators interleaving assert/retract with their own
// queries, other tenants querying throughout, legacy pooled queries
// on a separate static image, and a budget-suspended session being
// resumed — then checks no clause leaked across tenants and the pool
// fully drains.
func TestTenantRace(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(4))

	const tenants = 4
	const rounds = 8
	dbs := make([]*dyndb.DB, tenants)
	for i := range dbs {
		dbs[i] = seed.Clone()
	}

	// A legacy static image served by the same pool object (its own
	// image pool): the old path must stay undisturbed.
	statProg := core.MustLoad("app([], Ys, Ys).\napp([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n")
	statIm, err := statProg.CompileQuery("app([1,2], [3], R).")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants+2)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int, db *dyndb.DB) {
			defer wg.Done()
			mine := fmt.Sprintf("t%d", id)
			for r := 0; r < rounds; r++ {
				c := parse(t, fmt.Sprintf("color(%s_%d)", mine, r))
				if _, err := db.Assertz(c); err != nil {
					errs <- fmt.Errorf("tenant %d assert: %w", id, err)
					return
				}
				sols := collect(t, pool, db, "likes(X)")
				if len(sols) != r+1 {
					errs <- fmt.Errorf("tenant %d round %d: %d solutions, want %d (%v)",
						id, r, len(sols), r+1, sols)
					return
				}
				for _, s := range sols {
					if len(s) < len(mine) || s[:len(mine)+1] != mine+"_" {
						errs <- fmt.Errorf("tenant %d saw foreign clause %q", id, s)
						return
					}
				}
			}
			// Retract half and recheck.
			for r := 0; r < rounds; r += 2 {
				c := parse(t, fmt.Sprintf("color(%s_%d)", mine, r))
				if ok, _, err := db.Retract(c); err != nil || !ok {
					errs <- fmt.Errorf("tenant %d retract %d: ok=%v err=%v", id, r, ok, err)
					return
				}
			}
			if sols := collect(t, pool, db, "likes(X)"); len(sols) != rounds/2 {
				errs <- fmt.Errorf("tenant %d after retracts: %d solutions, want %d",
					id, len(sols), rounds/2)
			}
		}(i, dbs[i])
	}

	// Legacy static queries throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*2; r++ {
			sol, err := firstSolution(context.Background(), pool, statIm)
			if err != nil {
				errs <- fmt.Errorf("static query: %w", err)
				return
			}
			if v, _ := sol.Binding("R"); v == nil || v.String() != "[1,2,3]" {
				errs <- fmt.Errorf("static query got %v", sol)
				return
			}
		}
	}()

	// A budget-suspended tenant session resumed slice by slice while
	// everything else churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		db := seed.Clone()
		if _, err := db.Assertz(parse(t, "color(slowpoke)")); err != nil {
			errs <- err
			return
		}
		s, err := pool.BeginDyn(context.Background(), db,
			parse(t, "app(L, R, [a,b,c,d,e]), likes(X)"), engine.WithBudget(40))
		if err != nil {
			errs <- fmt.Errorf("suspend session: %w", err)
			return
		}
		defer s.Close()
		got := 0
		for i := 0; i < 10_000; i++ {
			if s.Next(context.Background()) {
				got++
				continue
			}
			if s.Suspended() {
				continue // resume next Next: the redo path under churn
			}
			break
		}
		if err := s.Err(); err != nil {
			errs <- fmt.Errorf("suspended session: %w", err)
			return
		}
		if got != 6 { // six splits of the 5-element list, one color each
			errs <- fmt.Errorf("suspended session got %d solutions, want 6", got)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("InUse=%d after drain, want 0", st.InUse)
	}
}

// TestMetaCallOnBaseImage: call/1 reaches every predicate of a machine
// built from a base image, whatever the symbol table held when the
// machine was built. Compiling a base image interns no predicate
// names, and a goal that only calls app/3 does not intern it either,
// so the meta-call table must not depend on interned names: the second
// lease here, on the machine the first one built, meta-calls app/3.
func TestMetaCallOnBaseImage(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(1))
	if got := collect(t, pool, seed, "app([a], [], X)"); strings.Join(got, " ") != "[a]" {
		t.Fatalf("direct call: %v, want [[a]]", got)
	}
	if got := collect(t, pool, seed, "call(app([a], [b], X))"); strings.Join(got, " ") != "[a,b]" {
		t.Fatalf("meta-call: %v, want [[a,b]]", got)
	}
}
