package engine_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/term"
)

// Tenant leases across tail compaction. A tenant database compacts its
// code tail whenever the blocks its mutations replaced outweigh the
// live ones, so code addresses move under the pool: these tests pin
// that every lease still sees exactly its tenant's clauses at the
// version it was leased with, and that parked sessions go stale on the
// compacting mutation like on any other.

// factProgram declares fact/1 dynamic with n seed clauses fact(1)..fact(n).
func factProgram(n int) string {
	var b strings.Builder
	b.WriteString(":- dynamic(fact/1).\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "fact(%d).\n", i)
	}
	return b.String()
}

func factModel(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprint(i + 1)
	}
	return out
}

// deltaTop parks a fresh session of goal after one solution and
// returns the blob with the tenant delta frontier it records. Between
// compactions the frontier only grows (a mutation appends its rebuilt
// block), so a frontier below the previous one marks a compaction.
func deltaTop(t *testing.T, p *engine.Pool, db *dyndb.DB, goal string) ([]byte, uint32) {
	t.Helper()
	ctx := context.Background()
	s, err := p.BeginDyn(ctx, db, parse(t, goal))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next(ctx) {
		t.Fatalf("%s: no first solution: %v", goal, s.Err())
	}
	blob, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	st, err := machine.DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	return blob, st.DeltaTop
}

// TestTenantCompactionRace runs four clients over eight 16-fact
// tenants on a 2-machine pool, under -race when the suite is. Each
// client owns two tenants and alternates assert/retract pairs with
// full fact(X) enumerations, each checked against the client's model
// of the tenant; every tenant mutates far past the point where its tail
// compacts. Meanwhile client 0 holds a budget-suspended enumeration of
// its own tenant open across many of those compactions, and it must
// still enumerate exactly the clauses it was leased with.
func TestTenantCompactionRace(t *testing.T) {
	const tenants, clients, pairs, facts = 8, 4, 32, 16
	seed := seedDB(t, factProgram(facts))
	pool := engine.New(engine.WithPoolSize(2))
	dbs := make([]*dyndb.DB, tenants)
	for i := range dbs {
		dbs[i] = seed.Clone()
	}
	goal := parse(t, "fact(X)")
	_, seedTop := deltaTop(t, pool, dbs[0], "fact(X)")
	baseTop := uint32(len(seed.Image().Code))
	live := seedTop - baseTop // words of the 16-fact block

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- churnClient(pool, dbs, goal, c, clients, pairs, facts)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// 2·pairs mutations per tenant would have left as many replaced
	// blocks behind; compaction keeps each tail within the bound (twice
	// the live words plus a constant slack, with a 17-fact block at
	// most 1.5 times the 16-fact one).
	for i, db := range dbs {
		if _, top := deltaTop(t, pool, db, "fact(X)"); top-baseTop > 3*live+64 {
			t.Errorf("tenant %d: delta frontier %d words above the base, 16-fact block is %d",
				i, top-baseTop, live)
		}
	}
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("InUse=%d after drain, want 0", st.InUse)
	}
}

// churnClient is one client of TestTenantCompactionRace: it owns the
// tenants whose index is client modulo clients.
func churnClient(pool *engine.Pool, dbs []*dyndb.DB, goal term.Term, client, clients, pairs, facts int) error {
	var own []int
	models := map[int][]string{}
	for i := client; i < len(dbs); i += clients {
		own = append(own, i)
		models[i] = factModel(facts)
	}
	check := func(i int) error {
		got, err := solutionsX(pool, dbs[i], goal)
		if err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		if !slices.Equal(got, models[i]) {
			return fmt.Errorf("tenant %d sees %v, model %v", i, got, models[i])
		}
		return nil
	}

	// Client 0 leases its first tenant with a small budget and leaves
	// the enumeration suspended while the tenant churns.
	var held *engine.Session
	var leased, heldGot []string
	ctx := context.Background()
	if client == 0 {
		i := own[0]
		leased = slices.Clone(models[i])
		s, err := pool.BeginDyn(ctx, dbs[i], goal, engine.WithBudget(3))
		if err != nil {
			return err
		}
		held = s
		defer held.Close()
		for len(heldGot) < 2 || !held.Suspended() {
			if held.Next(ctx) {
				v, _ := held.Solution().Binding("X")
				heldGot = append(heldGot, v.String())
			} else if !held.Suspended() {
				return fmt.Errorf("held session ended before churn: %v (err=%v)", heldGot, held.Err())
			}
		}
	}

	for r := 0; r < pairs; r++ {
		for _, i := range own {
			name := fmt.Sprintf("t%d_%d", i, r)
			cl, err := reader.ParseTerm("fact(" + name + ") .")
			if err != nil {
				return err
			}
			if _, err := dbs[i].Assertz(cl); err != nil {
				return fmt.Errorf("tenant %d assert: %w", i, err)
			}
			models[i] = append(models[i], name)
			if err := check(i); err != nil {
				return err
			}
			oldest := models[i][0]
			if cl, err = reader.ParseTerm("fact(" + oldest + ") ."); err != nil {
				return err
			}
			if ok, _, err := dbs[i].Retract(cl); err != nil || !ok {
				return fmt.Errorf("tenant %d retract %s: ok=%v err=%v", i, oldest, ok, err)
			}
			models[i] = models[i][1:]
			if err := check(i); err != nil {
				return err
			}
		}
	}

	if held != nil {
		for {
			if held.Next(ctx) {
				v, _ := held.Solution().Binding("X")
				heldGot = append(heldGot, v.String())
				continue
			}
			if held.Suspended() {
				continue
			}
			break
		}
		if held.Err() != nil || !slices.Equal(heldGot, leased) {
			return fmt.Errorf("held session enumerated %v (err=%v), leased with %v", heldGot, held.Err(), leased)
		}
	}
	return nil
}

// TestTenantSuspendAcrossCompaction: a session parked before a
// compacting mutation is stale once the tail compacts — its code
// addresses now name other blocks — and ResumeGoal refuses it with
// ErrStaleDelta. A session parked after the compaction resumes on a
// fresh pool and continues byte-identically: the same solutions with
// the same simulated counters as an enumeration never suspended.
func TestTenantSuspendAcrossCompaction(t *testing.T) {
	const goal = "fact(X)"
	db := seedDB(t, factProgram(16)).Clone()
	pool := engine.New(engine.WithPoolSize(2))

	blob, top := deltaTop(t, pool, db, goal)
	compacted := false
	for i := 0; i < 64 && !compacted; i++ {
		extra := parse(t, fmt.Sprintf("fact(x%d)", i))
		if _, err := db.Assertz(extra); err != nil {
			t.Fatal(err)
		}
		next, nextTop := deltaTop(t, pool, db, goal)
		if compacted = nextTop < top; compacted {
			if _, err := pool.ResumeGoal(context.Background(), db, goalOf(t, db, parse(t, goal)), blob); !errors.Is(err, engine.ErrStaleDelta) {
				t.Fatalf("resume across a compaction: %v, want ErrStaleDelta", err)
			}
		}
		blob, top = next, nextTop
	}
	if !compacted {
		t.Fatal("64 asserts never compacted the tail")
	}

	// Reference: an uninterrupted enumeration on a fresh pool.
	fresh := func() *engine.Pool { return engine.New(engine.WithPoolSize(1)) }
	rs, err := fresh().BeginDyn(context.Background(), db, parse(t, goal))
	if err != nil {
		t.Fatal(err)
	}
	ref := enumerate(t, rs)
	rs.Close()
	if len(ref) < 17 {
		t.Fatalf("reference enumeration: %d solutions", len(ref))
	}

	for _, park := range []int{1, len(ref) / 2} {
		s, err := fresh().BeginDyn(context.Background(), db, parse(t, goal))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < park; i++ {
			if !s.Next(context.Background()) {
				t.Fatalf("park=%d: solution %d missing", park, i)
			}
		}
		blob, err := s.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		r, err := fresh().ResumeGoal(context.Background(), db, goalOf(t, db, parse(t, goal)), blob)
		if err != nil {
			t.Fatalf("park=%d: ResumeGoal: %v", park, err)
		}
		rest := enumerate(t, r)
		r.Close()
		if len(rest) != len(ref)-park {
			t.Fatalf("park=%d: resumed session delivered %d more, want %d", park, len(rest), len(ref)-park)
		}
		for j, got := range rest {
			if got != ref[park+j] {
				t.Fatalf("park=%d sol %d after resume differs:\n got %+v\nwant %+v", park, park+j, got, ref[park+j])
			}
		}
	}
}
