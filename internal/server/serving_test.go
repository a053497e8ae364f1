package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/wire"
)

// The single serving path: every query, tenantless or not, runs as a
// compiled goal block over its program's database, on the program's
// one machine set.

// TestServingDifferentialHTTP: a goal is read the same way whether or
// not it names a tenant, so a goal without its final '.' is accepted on
// both request kinds and agrees with the terminated form.
func TestServingDifferentialHTTP(t *testing.T) {
	_, c := startServer(t, Config{PoolSize: 1})
	for _, tenant := range []string{"", "t"} {
		for _, goal := range []string{"member(X, [a,b])", "member(X, [a,b])."} {
			var got []string
			rep, err := c.Stream(context.Background(), wire.QueryRequest{Goal: goal, Tenant: tenant},
				func(line wire.Reply) bool { got = append(got, line.Bindings["X"]); return true })
			if err != nil || rep.Status != wire.StatusDone || strings.Join(got, ",") != "a,b" {
				t.Errorf("tenant %q, goal %q: %v, final %+v, err %v; want a,b", tenant, goal, got, rep, err)
			}
		}
	}
}

// TestDistinctGoalFlood: varying the goal text must not grow the
// daemon. 256 distinct tenantless goals against a 2-machine pool, one
// at a time and then from 8 concurrent clients, leave at most the
// pool's machines built, none leased, and the goal cache within its
// bound.
func TestDistinctGoalFlood(t *testing.T) {
	srv, c := startServer(t, Config{PoolSize: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const goals, clients = 256, 8
	ask := func(i int) error {
		rep, err := c.Query(ctx, wire.QueryRequest{Goal: fmt.Sprintf("app([%d], [x], R).", i)})
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("[%d,x]", i); rep.Status != wire.StatusYes || rep.Bindings["R"] != want {
			return fmt.Errorf("goal %d: %+v, want R = %s", i, rep, want)
		}
		return nil
	}
	bounded := func(pass string) {
		t.Helper()
		if st := srv.Pool().Stats(); st.Built > 2 || st.InUse != 0 {
			t.Fatalf("%s: %+v, want at most 2 built and none in use", pass, st)
		}
		srv.goalMu.Lock()
		n := len(srv.goals)
		srv.goalMu.Unlock()
		if n > maxGoals {
			t.Fatalf("%s: %d cached goals, bound %d", pass, n, maxGoals)
		}
	}
	for i := 0; i < goals; i++ {
		if err := ask(i); err != nil {
			t.Fatal(err)
		}
		bounded(fmt.Sprintf("sequential goal %d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := goals + w; i < 2*goals; i += clients {
				if err := ask(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	bounded("concurrent")

	// Past the bound the cache evicts: it never holds more than
	// maxGoals, and an evicted goal compiles again on its next use.
	_, db, err := srv.database("", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxGoals+8; i++ {
		if _, err := srv.goal("lists", db, fmt.Sprintf("app(X, Y, [%d]).", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(srv.goals); n != maxGoals {
		t.Fatalf("%d cached goals past the bound, want %d", n, maxGoals)
	}
	if err := ask(0); err != nil {
		t.Fatal(err)
	}
}

// TestProgramMachinesShared: a program's tenantless and tenant requests
// share its machines, whatever the goals. /v1/stats counts one image
// per program, and built stays within programs x pool size.
func TestProgramMachinesShared(t *testing.T) {
	_, c := startServer(t, Config{
		Programs: map[string]string{"lists": testSrc, "colors": dynSrc},
		PoolSize: 2,
	})
	ctx := context.Background()
	for _, q := range []wire.QueryRequest{
		{Program: "lists", Goal: "member(X, [a])."},
		{Program: "lists", Goal: "nrev([1,2], X)."},
		{Program: "lists", Goal: "app(X, [], [b]).", Tenant: "t"},
		{Program: "colors", Goal: "likes(X)."},
		{Program: "colors", Goal: "color(X).", Tenant: "t"},
		{Program: "colors", Goal: "app([c], [], X).", Tenant: "u"},
	} {
		if rep, err := c.Query(ctx, q); err != nil || rep.Status != wire.StatusYes {
			t.Fatalf("%+v: %+v, %v", q, rep, err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Images != 2 || st.Pool.Built > 2*2 {
		t.Fatalf("pool %+v, want 2 images and at most 4 machines", st.Pool)
	}
}

// TestParkedSessionHoldsProgramMachine: a parked enumeration holds one
// of its program's machines, so on a 1-machine pool a query for
// another goal of the same program waits for it (503 at its deadline)
// and runs once the session is cancelled.
func TestParkedSessionHoldsProgramMachine(t *testing.T) {
	_, c := startServer(t, Config{PoolSize: 1})
	ctx := context.Background()
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: "member(X, [a,b]).", Enumerate: true})
	if err != nil || rep.Status != wire.StatusYes || rep.Session == "" {
		t.Fatalf("enumeration: %+v, %v", rep, err)
	}
	other := wire.QueryRequest{Goal: "nrev([1,2], R).", TimeoutMS: 100}
	if got, code := postRaw(t, c.Base(), "/v1/query", other); code != http.StatusServiceUnavailable {
		t.Fatalf("other goal beside the parked session: http %d %+v, want 503", code, got)
	}
	if rep, err := c.Cancel(ctx, rep.Session); err != nil || rep.Status != wire.StatusCancelled {
		t.Fatalf("cancel: %+v, %v", rep, err)
	}
	if got, code := postRaw(t, c.Base(), "/v1/query", other); code != http.StatusOK || got.Bindings["R"] != "[2,1]" {
		t.Fatalf("other goal after the cancel: http %d %+v", code, got)
	}
}

// TestResumeRefusesWholeImageBlob: a tenantless session parked from a
// whole image (as daemons did before every query ran over the seed
// database) carries no database delta, and /v1/resume refuses it with
// 422 rather than resuming it over different code.
func TestResumeRefusesWholeImageBlob(t *testing.T) {
	dir := t.TempDir()
	srv, c := startServer(t, Config{StateDir: dir})
	im, err := core.MustLoad(testSrc).CompileQuery(longGoal)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	m.Begin(entry)
	st, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	blob := st.Encode()
	const handle = "0123456789abcdef"
	if err := srv.writeEnvelope(handle, envelope{Program: "lists", Goal: longGoal, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	if rep, code := postRaw(t, c.Base(), "/v1/resume", wire.ResumeRequest{Handle: handle}); code != http.StatusUnprocessableEntity {
		t.Fatalf("whole-image blob resumed: http %d %+v, want 422", code, rep)
	}
}

// TestNewRejectsUnlinkableProgram: a program whose base image cannot be
// built fails New instead of failing every later query.
func TestNewRejectsUnlinkableProgram(t *testing.T) {
	if _, err := New(Config{Programs: map[string]string{"bad": "p :- q.\n"}}); err == nil {
		t.Fatal("New accepted a program calling an undefined predicate")
	}
}
