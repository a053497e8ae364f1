// Command kcmd is the KCM query daemon: a network front-end over the
// warm-machine pool. It loads Prolog programs at startup, compiles
// each distinct goal once, and serves solutions over HTTP/JSON — one
// endpoint per verb (query, next-solution, cancel, stats) plus an
// NDJSON streaming mode for multi-solution enumeration. Per-request
// deadlines and step budgets map onto the machine's resumable
// sessions; budget-suspended queries are parked in a session table
// with idle eviction; SIGTERM drains gracefully, finishing in-flight
// and parked queries before exit. With -state DIR, parked sessions
// are instead serialized to DIR on drain (and on /v1/suspend) and
// survive the restart: the next kcmd process resumes them via
// /v1/resume, byte-identical down to the simulated cycle counters.
//
// Usage:
//
//	kcmd [flags] program.pl...
//
// Examples:
//
//	kcmd -addr 127.0.0.1:7071 lists.pl
//	kcmd -demo                              # serve the built-in list library
//	kcmd -smoke                             # self-test: ephemeral port, scripted
//	                                        # query + stream + cancel, clean drain
//
//	curl -s localhost:7071/v1/query -d '{"goal":"nrev([1,2,3],R)."}'
//	curl -s localhost:7071/v1/query -d '{"goal":"member(X,[a,b,c]).","stream":true}'
//	curl -s localhost:7071/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wire"
)

// demoSrc is the built-in list library served by -demo and -smoke.
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

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7071", "listen address (use :0 for an ephemeral port)")
		poolSize = flag.Int("pool", 0, "machines per image (0 = GOMAXPROCS)")
		warm     = flag.Bool("warm", false, "warm each image's machines on first use (paper protocol)")
		prof     = flag.Bool("profile", false, "pool-wide per-predicate cycle profiling")
		budget   = flag.Uint64("budget", 0, "default step budget per execution slice (0 = 50M)")
		timeout  = flag.Duration("timeout", 0, "default wall-clock bound per request slice (0 = 30s)")
		idle     = flag.Duration("idle", 60*time.Second, "evict sessions idle this long")
		drainT   = flag.Duration("drain-timeout", 15*time.Second, "bound on the graceful drain")
		sessions = flag.Int("sessions", 0, "session-table cap (0 = 4x pool size)")
		state    = flag.String("state", "", "state directory for session suspend/resume across restarts")
		demo     = flag.Bool("demo", false, "serve the built-in list library (app/nrev/member)")
		smoke    = flag.Bool("smoke", false, "self-test against an ephemeral port and exit")
	)
	flag.Parse()

	programs := map[string]string{}
	if *demo || *smoke {
		programs["lists"] = demoSrc
	}
	for _, f := range flag.Args() {
		b, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		programs[name] = string(b)
	}
	if len(programs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: kcmd [flags] program.pl...  (or -demo)")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := server.Config{
		Programs: programs,
		PoolOptions: []engine.PoolOption{
			engine.WithPoolSize(*poolSize),
			engine.WithWarm(*warm),
			engine.WithProfiling(*prof),
		},
		DefaultBudget:  *budget,
		DefaultTimeout: *timeout,
		IdleTimeout:    *idle,
		MaxSessions:    *sessions,
		StateDir:       *state,
	}

	if *smoke {
		if err := runSmoke(cfg, *drainT); err != nil {
			fatal(fmt.Errorf("smoke: %w", err))
		}
		fmt.Println("kcmd: smoke ok")
		return
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kcmd: serving %d program(s) on %s\n", len(programs), l.Addr())

	// SIGTERM/SIGINT: stop accepting, finish in-flight requests,
	// complete parked sessions, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		<-sig
		fmt.Println("kcmd: draining")
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		done <- srv.Drain(ctx)
	}()

	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Println("kcmd: drained, bye")
}

// runSmoke is the verify-gate self-test: a real daemon on an
// ephemeral loopback port, exercised through the real client — a
// single-shot query, a session-driven enumeration, a budget-suspended
// query that is cancelled, an NDJSON stream — then a drain with a
// suspended session still parked, asserting every machine returns to
// the pool.
func runSmoke(cfg server.Config, drainT time.Duration) error {
	if cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "kcmd-state-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir = dir
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := client.New("http://" + l.Addr().String())

	// 1. Single-shot query.
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: "nrev([1,2,3,4,5], R)."})
	if err != nil {
		return err
	}
	if rep.Status != wire.StatusYes || rep.Bindings["R"] != "[5,4,3,2,1]" {
		return fmt.Errorf("query: %+v", rep)
	}

	// 2. Session-driven enumeration: 3 solutions then exhaustion.
	rep, err = c.Query(ctx, wire.QueryRequest{Goal: "member(X, [a,b,c]).", Enumerate: true})
	if err != nil {
		return err
	}
	for _, want := range []string{"a", "b", "c"} {
		if rep.Status != wire.StatusYes || rep.Bindings["X"] != want {
			return fmt.Errorf("enumerate: got %+v, want X=%s", rep, want)
		}
		if rep, err = c.Next(ctx, rep.Session, 0); err != nil {
			return err
		}
	}
	if rep.Status != wire.StatusNo || rep.Solutions != 3 {
		return fmt.Errorf("enumerate end: %+v", rep)
	}

	// 3. Budget suspension + cancel.
	rep, err = c.Query(ctx, wire.QueryRequest{
		Goal:   "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20], R).",
		Budget: 100,
	})
	if err != nil {
		return err
	}
	if rep.Status != wire.StatusSuspended || rep.Session == "" {
		return fmt.Errorf("suspend: %+v", rep)
	}
	if rep, err = c.Cancel(ctx, rep.Session); err != nil || rep.Status != wire.StatusCancelled {
		return fmt.Errorf("cancel: %+v, %w", rep, err)
	}

	// 4. Streaming enumeration.
	var streamed int
	fin, err := c.Stream(ctx, wire.QueryRequest{Goal: "member(X, [1,2,3,4,5])."},
		func(wire.Reply) bool { streamed++; return true })
	if err != nil {
		return err
	}
	if fin.Status != wire.StatusDone || streamed != 5 || fin.Solutions != 5 {
		return fmt.Errorf("stream: %d solutions, final %+v", streamed, fin)
	}

	// 5. Dynamic database: assert into a tenant, query it, retract,
	// and check the shared static program never saw the delta.
	rep, err = c.Assert(ctx, wire.AssertRequest{Tenant: "smoke", Clause: "color(red)"})
	if err != nil || rep.Status != wire.StatusYes || rep.Version == 0 {
		return fmt.Errorf("assert: %+v, %w", rep, err)
	}
	var liked []string
	if _, err = c.Stream(ctx, wire.QueryRequest{Goal: "likes(X).", Tenant: "smoke"},
		func(line wire.Reply) bool { liked = append(liked, line.Bindings["X"]); return true }); err != nil {
		return err
	}
	if len(liked) != 2 || liked[0] != "white" || liked[1] != "red" {
		return fmt.Errorf("tenant query after assert: %v", liked)
	}
	if rep, err = c.Retract(ctx, wire.RetractRequest{Tenant: "smoke", Clause: "color(red)"}); err != nil || rep.Status != wire.StatusYes {
		return fmt.Errorf("retract: %+v, %w", rep, err)
	}
	if rep, err = c.Query(ctx, wire.QueryRequest{Goal: "likes(X).", Tenant: "smoke", Enumerate: false}); err != nil ||
		rep.Status != wire.StatusYes || rep.Bindings["X"] != "white" {
		return fmt.Errorf("tenant query after retract: %+v, %w", rep, err)
	}
	if rep, err = c.Query(ctx, wire.QueryRequest{Goal: "likes(X)."}); err != nil ||
		rep.Status != wire.StatusYes || rep.Bindings["X"] != "white" {
		return fmt.Errorf("static program after tenant mutations: %+v, %w", rep, err)
	}

	// 6. Stats reflect the traffic.
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if st.Totals.Queries == 0 || st.Totals.Solutions < 9 || st.Sessions.Created < 2 {
		return fmt.Errorf("stats: %+v", st)
	}
	if st.Tenants != 1 {
		return fmt.Errorf("stats tenants: %+v", st)
	}

	// 7. Session migration within the daemon: park an enumeration to
	// disk mid-flight, resume its handle, and finish it.
	const migGoal = "nrev([1,2,3,4,5,6,7,8,9,10], R), member(X, [1,2,3])."
	rep, err = c.Query(ctx, wire.QueryRequest{Goal: migGoal, Enumerate: true})
	if err != nil || rep.Status != wire.StatusYes {
		return fmt.Errorf("migration query: %+v, %w", rep, err)
	}
	park, err := c.Suspend(ctx, rep.Session)
	if err != nil || park.Status != wire.StatusParked || park.Handle == "" {
		return fmt.Errorf("suspend to disk: %+v, %w", park, err)
	}
	rep, err = c.Resume(ctx, wire.ResumeRequest{Handle: park.Handle})
	if err != nil || rep.Status != wire.StatusSuspended {
		return fmt.Errorf("resume from disk: %+v, %w", rep, err)
	}
	sols := park.Solutions
	for rep, err = c.Next(ctx, rep.Session, 0); err == nil && rep.Status == wire.StatusYes; rep, err = c.Next(ctx, rep.Session, 0) {
		sols++
	}
	if err != nil || rep.Status != wire.StatusNo || sols != 3 {
		return fmt.Errorf("post-resume enumeration: %d solutions, %+v, %w", sols, rep, err)
	}

	// 8. Drain with a suspended session parked: with a state directory
	// it is serialized to disk and every machine returns to the pool.
	rep, err = c.Query(ctx, wire.QueryRequest{Goal: migGoal, Budget: 100})
	if err != nil {
		return err
	}
	if rep.Status != wire.StatusSuspended {
		return fmt.Errorf("pre-drain suspend: %+v", rep)
	}
	handle := rep.Session
	dctx, dcancel := context.WithTimeout(context.Background(), drainT)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve exit: %w", err)
	}
	if ps := srv.Pool().Stats(); ps.InUse != 0 {
		return fmt.Errorf("machines leaked across drain: %+v", ps)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, handle+".snap")); err != nil {
		return fmt.Errorf("drain did not park the session: %w", err)
	}

	// 9. Restart: a second daemon process-equivalent over the same
	// state directory resumes the drained session and finishes it.
	srv2, err := server.New(cfg)
	if err != nil {
		return err
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr2 := make(chan error, 1)
	go func() { serveErr2 <- srv2.Serve(l2) }()
	c2 := client.New("http://" + l2.Addr().String())
	rep, err = c2.Resume(ctx, wire.ResumeRequest{Handle: handle})
	if err != nil || rep.Status != wire.StatusSuspended {
		return fmt.Errorf("resume after restart: %+v, %w", rep, err)
	}
	sols = rep.Solutions
	for rep, err = c2.Next(ctx, rep.Session, 0); err == nil; rep, err = c2.Next(ctx, rep.Session, 0) {
		if rep.Status == wire.StatusYes {
			sols++
		} else if rep.Status != wire.StatusSuspended {
			break
		}
	}
	if err != nil || rep.Status != wire.StatusNo || sols != 3 {
		return fmt.Errorf("post-restart enumeration: %d solutions, %+v, %w", sols, rep, err)
	}
	dctx2, dcancel2 := context.WithTimeout(context.Background(), drainT)
	defer dcancel2()
	if err := srv2.Drain(dctx2); err != nil {
		return fmt.Errorf("drain 2: %w", err)
	}
	if err := <-serveErr2; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve 2 exit: %w", err)
	}
	if ps := srv2.Pool().Stats(); ps.InUse != 0 {
		return fmt.Errorf("machines leaked across second drain: %+v", ps)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcmd:", err)
	os.Exit(1)
}
