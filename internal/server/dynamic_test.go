package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// The tenant verbs end to end: assert/retract over HTTP mutate one
// tenant's copy-on-write database, queries naming the tenant see the
// delta, other tenants and the static program do not.

const dynSrc = `
:- dynamic(color/1).
color(white).
likes(X) :- color(X).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`

func TestAssertQueryRetractOverHTTP(t *testing.T) {
	_, c := startServer(t, Config{
		Programs: map[string]string{"colors": dynSrc},
		PoolSize: 2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	enumerate := func(tenant string) []string {
		var got []string
		rep, err := c.Stream(ctx, wire.QueryRequest{
			Goal: "likes(X).", Tenant: tenant,
		}, func(line wire.Reply) bool {
			got = append(got, line.Bindings["X"])
			return true
		})
		if err != nil || rep.Status != wire.StatusDone {
			t.Fatalf("stream for %q: rep=%+v err=%v", tenant, rep, err)
		}
		return got
	}

	// The seed clause is visible to a fresh tenant.
	if got := enumerate("alice"); strings.Join(got, ",") != "white" {
		t.Fatalf("fresh tenant sees %v, want [white]", got)
	}

	// Assert into alice only.
	rep, err := c.Assert(ctx, wire.AssertRequest{Tenant: "alice", Clause: "color(red)"})
	if err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("assert: rep=%+v err=%v", rep, err)
	}
	if rep.Version == 0 {
		t.Fatalf("assert reply carries no version: %+v", rep)
	}
	if got := enumerate("alice"); strings.Join(got, ",") != "white,red" {
		t.Fatalf("alice sees %v, want [white red]", got)
	}
	if got := enumerate("bob"); strings.Join(got, ",") != "white" {
		t.Fatalf("bob sees %v, want [white]", got)
	}

	// asserta puts the clause in front.
	if rep, err := c.Assert(ctx, wire.AssertRequest{Tenant: "alice", Clause: "color(black)", Front: true}); err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("asserta: rep=%+v err=%v", rep, err)
	}
	if got := enumerate("alice"); strings.Join(got, ",") != "black,white,red" {
		t.Fatalf("alice sees %v after asserta", got)
	}

	// Retract: yes when removed, no when absent.
	if rep, err := c.Retract(ctx, wire.RetractRequest{Tenant: "alice", Clause: "color(white)"}); err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("retract: rep=%+v err=%v", rep, err)
	}
	if rep, err := c.Retract(ctx, wire.RetractRequest{Tenant: "alice", Clause: "color(chartreuse)"}); err != nil || rep.Status != wire.StatusNo {
		t.Fatalf("retract absent: rep=%+v err=%v", rep, err)
	}
	if got := enumerate("alice"); strings.Join(got, ",") != "black,red" {
		t.Fatalf("alice sees %v after retract", got)
	}

	// The static program (no tenant) never sees any delta.
	rep, err = c.Query(ctx, wire.QueryRequest{Goal: "likes(X)."})
	if err != nil || rep.Status != wire.StatusYes || rep.Bindings["X"] != "white" {
		t.Fatalf("static program: rep=%+v err=%v", rep, err)
	}

	// A tenant session can suspend on its budget and resume with next,
	// exactly like a static one.
	rep, err = c.Query(ctx, wire.QueryRequest{
		Goal: "app(L, R, [a,b,c,d,e,f,g,h]), likes(X).", Tenant: "alice",
		Budget: 60, Enumerate: true,
	})
	if err != nil {
		t.Fatalf("tenant enumerate: %v", err)
	}
	sols := 0
	for i := 0; i < 10_000 && rep.Status == wire.StatusYes || rep.Status == wire.StatusSuspended; i++ {
		if rep.Status == wire.StatusYes {
			sols++
		}
		if rep.Session == "" {
			break
		}
		if rep, err = c.Next(ctx, rep.Session, 0); err != nil {
			t.Fatalf("next: %v", err)
		}
	}
	if want := 9 * 2; sols != want { // nine splits x two colors
		t.Fatalf("tenant enumeration delivered %d solutions, want %d", sols, want)
	}

	// Stats reports the tenant databases.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 2 {
		t.Fatalf("stats tenants=%d, want 2 (alice, bob)", st.Tenants)
	}
}

func TestAssertRejections(t *testing.T) {
	srv, err := New(Config{Programs: map[string]string{"colors": dynSrc}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	cases := []struct {
		name string
		req  wire.AssertRequest
		code string // substring of the expected error
	}{
		{"no tenant", wire.AssertRequest{Clause: "color(red)"}, "needs a tenant"},
		{"static pred", wire.AssertRequest{Tenant: "t", Clause: "app([], [], [])"}, "not dynamic"},
		{"empty clause", wire.AssertRequest{Tenant: "t", Clause: "  "}, "empty clause"},
		{"unparsable", wire.AssertRequest{Tenant: "t", Clause: "color("}, "clause:"},
		{"directive", wire.AssertRequest{Tenant: "t", Clause: ":- dynamic(q/1)"}, "malformed clause"},
		{"bad goal body", wire.AssertRequest{Tenant: "t", Clause: "color(X) :- no_such(X)"}, "malformed clause"},
	}
	for _, tc := range cases {
		rep, err := c.Assert(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: transport: %v", tc.name, err)
		}
		if rep.Status != wire.StatusError || !strings.Contains(rep.Error, tc.code) {
			t.Fatalf("%s: rep=%+v, want error containing %q", tc.name, rep, tc.code)
		}
	}

	// After every rejection the tenant still answers queries.
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: "likes(X).", Tenant: "t"})
	if err != nil || rep.Status != wire.StatusYes || rep.Bindings["X"] != "white" {
		t.Fatalf("control query: rep=%+v err=%v", rep, err)
	}
}

// TestTenantHTTPRace drives concurrent assert/query/retract across
// tenants through real HTTP; the suite's -race run makes this a data
// race probe over server, engine, dyndb and machine layers at once.
func TestTenantHTTPRace(t *testing.T) {
	srv, c := startServer(t, Config{
		Programs: map[string]string{"colors": dynSrc},
		PoolSize: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const tenants = 5
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", id)
			for r := 0; r < rounds; r++ {
				cl := fmt.Sprintf("color(%s_%d)", tenant, r)
				if rep, err := c.Assert(ctx, wire.AssertRequest{Tenant: tenant, Clause: cl}); err != nil || rep.Status != wire.StatusYes {
					errs <- fmt.Errorf("%s assert: rep=%+v err=%v", tenant, rep, err)
					return
				}
				var seen []string
				rep, err := c.Stream(ctx, wire.QueryRequest{Goal: "likes(X).", Tenant: tenant},
					func(line wire.Reply) bool {
						seen = append(seen, line.Bindings["X"])
						return true
					})
				if err != nil || rep.Status != wire.StatusDone {
					errs <- fmt.Errorf("%s stream: rep=%+v err=%v", tenant, rep, err)
					return
				}
				if len(seen) != r+2 { // the white seed + r+1 asserts
					errs <- fmt.Errorf("%s round %d: saw %v", tenant, r, seen)
					return
				}
				for _, s := range seen[1:] {
					if !strings.HasPrefix(s, tenant+"_") {
						errs <- fmt.Errorf("%s saw foreign clause %q", tenant, s)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("InUse=%d after drain, want 0", st.InUse)
	}
}

// TestMetaCallAfterQuery: a goal meta-calling member/2 through call/1
// succeeds on the machine an earlier query built, with and without a
// tenant. The earlier goal only calls member/2, which leaves its name
// uninterned when the machine is built.
func TestMetaCallAfterQuery(t *testing.T) {
	for _, tenant := range []string{"", "t"} {
		_, c := startServer(t, Config{PoolSize: 1})
		for _, q := range []string{"member(X, [a]).", "call(member(X, [a, b]))."} {
			rep, code := postRaw(t, c.Base(), "/v1/query", wire.QueryRequest{Goal: q, Tenant: tenant})
			if code != http.StatusOK || rep.Status != wire.StatusYes || rep.Bindings["X"] != "a" {
				t.Errorf("tenant %q, %s: http %d %+v, want X = a", tenant, q, code, rep)
			}
		}
	}
}
