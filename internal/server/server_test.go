package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/wire"
)

// The session-table lifecycle under contention: concurrent clients
// driving next-solution while others cancel, the idle janitor firing
// mid-enumeration, and a drain that completes suspended sessions.
// All of it runs through real TCP and the real client, under -race.

const testSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`

// longGoal suspends under a 100-step budget and has three solutions.
const longGoal = "nrev([1,2,3,4,5,6,7,8,9,10], R), member(X, [1,2,3])."

// startServer runs a daemon on an ephemeral loopback port and returns
// it with a client. The caller must drain (or the cleanup does).
func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if cfg.Programs == nil {
		cfg.Programs = map[string]string{"lists": testSrc}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	t.Cleanup(func() {
		if !srv.draining.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve exit: %v", err)
		}
	})
	return srv, client.New("http://" + l.Addr().String())
}

// TestConcurrentNextAndCancel races enumeration against cancellation:
// half the clients drive sessions with next-solution to exhaustion
// while the other half park budget-suspended queries and cancel them,
// all against a pool smaller than the client count so the blocking
// acquire is exercised too.
func TestConcurrentNextAndCancel(t *testing.T) {
	srv, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const clients = 8
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				// Enumerator: session-driven, to exhaustion.
				rep, err := c.Query(ctx, wire.QueryRequest{
					Goal: "member(X, [a,b,c,d,e]).", Enumerate: true})
				sols := 0
				for {
					if err != nil {
						errs <- err
						return
					}
					switch rep.Status {
					case wire.StatusYes:
						sols++
					case wire.StatusSuspended:
					case wire.StatusNo:
						if sols != 5 {
							errs <- fmt.Errorf("enumerator %d: %d solutions", i, sols)
						}
						return
					default:
						errs <- fmt.Errorf("enumerator %d: %+v", i, rep)
						return
					}
					rep, err = c.Next(ctx, rep.Session, 0)
				}
			}
			// Canceller: suspend under a tiny budget, then discard.
			rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
			if err != nil {
				errs <- err
				return
			}
			if rep.Status != wire.StatusSuspended || rep.Session == "" {
				errs <- fmt.Errorf("canceller %d: %+v", i, rep)
				return
			}
			if rep, err = c.Cancel(ctx, rep.Session); err != nil || rep.Status != wire.StatusCancelled {
				errs <- fmt.Errorf("canceller %d: cancel %+v %v", i, rep, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.sessions.active(); n != 0 {
		t.Errorf("%d sessions still parked", n)
	}
}

// TestNextCancelSameSession races next and cancel on one session id:
// whatever interleaving wins, exactly one outcome class is legal per
// request and no machine is touched after its release.
func TestNextCancelSameSession(t *testing.T) {
	_, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for round := 0; round < 8; round++ {
		rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
		if err != nil || rep.Status != wire.StatusSuspended {
			t.Fatalf("round %d: %+v %v", round, rep, err)
		}
		id := rep.Session
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					// error status (unknown/closed session) is fine; a
					// transport error is not.
					if _, err := c.Next(ctx, id, 0); err != nil {
						t.Errorf("next: %v", err)
					}
					return
				}
				if _, err := c.Cancel(ctx, id); err != nil {
					t.Errorf("cancel: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestIdleEviction parks two sessions; one is abandoned and must be
// reaped by the janitor, the other is kept alive by next-solution
// touches through several eviction ticks and must survive to finish
// its enumeration.
func TestIdleEviction(t *testing.T) {
	srv, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
		IdleTimeout: 100 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The victim: parked and abandoned.
	victim, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
	if err != nil || victim.Status != wire.StatusSuspended {
		t.Fatalf("victim: %+v %v", victim, err)
	}

	// The survivor: an enumeration driven slower than the eviction
	// tick but faster than the idle timeout.
	rep, err := c.Query(ctx, wire.QueryRequest{
		Goal: "member(X, [a,b,c,d,e,f]).", Enumerate: true})
	if err != nil {
		t.Fatal(err)
	}
	sols := 0
	for rep.Status == wire.StatusYes {
		sols++
		time.Sleep(60 * time.Millisecond) // > tick (25ms), < idle timeout
		if rep, err = c.Next(ctx, rep.Session, 0); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Status != wire.StatusNo || sols != 6 {
		t.Fatalf("survivor: %d solutions, final %+v", sols, rep)
	}

	// By now the victim has idled well past the timeout.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessions.active() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := srv.sessions.active(); n != 0 {
		t.Fatalf("%d sessions still parked after idle timeout", n)
	}
	if rep, err = c.Next(ctx, victim.Session, 0); err != nil || rep.Status != wire.StatusError {
		t.Fatalf("next on evicted session: %+v %v", rep, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions.Evicted == 0 {
		t.Fatalf("stats: %+v", st.Sessions)
	}
}

// TestDrainCompletesSuspended parks suspended sessions, then drains:
// every parked search must be run to exhaustion, counted as drained,
// and every machine returned to the pool.
func TestDrainCompletesSuspended(t *testing.T) {
	srv, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for i := 0; i < 2; i++ {
		rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
		if err != nil || rep.Status != wire.StatusSuspended {
			t.Fatalf("park %d: %+v %v", i, rep, err)
		}
	}
	if n := srv.sessions.active(); n != 2 {
		t.Fatalf("parked %d sessions, want 2", n)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.sessions.mu.Lock()
	drained := srv.sessions.drained
	srv.sessions.mu.Unlock()
	if drained != 2 {
		t.Errorf("drained %d sessions, want 2", drained)
	}
	if ps := srv.pool.Stats(); ps.InUse != 0 {
		t.Errorf("machines leaked across drain: %+v", ps)
	}
	// New queries are refused while (and after) draining.
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: "member(X, [1])."})
	if err == nil && rep.Status == wire.StatusYes {
		t.Errorf("query accepted after drain: %+v", rep)
	}
}

// TestOversizedBodyRejected: a request body past maxBodyBytes gets
// 413, on a query and on a mutation alike, and the daemon keeps
// serving normal requests afterwards.
func TestOversizedBodyRejected(t *testing.T) {
	_, c := startServer(t, Config{})
	huge := strings.Repeat("a", 2<<20)
	for path, body := range map[string]any{
		"/v1/query":  wire.QueryRequest{Goal: huge},
		"/v1/assert": wire.AssertRequest{Tenant: "alice", Clause: huge},
	} {
		if rep, code := postRaw(t, c.Base(), path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: http %d (%+v), want 413", path, code, rep)
		}
	}
	rep, code := postRaw(t, c.Base(), "/v1/query", wire.QueryRequest{Goal: "member(X, [a])."})
	if code != http.StatusOK || rep.Status != wire.StatusYes || rep.Bindings["X"] != "a" {
		t.Fatalf("query after the rejections: http %d %+v", code, rep)
	}
}
