package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/trace"
)

const memberSrc = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`

// TestSessionEnumeration: a pool session enumerates every solution in
// clause order through Next, reports exhaustion, and returns its
// machine to the pool on Close.
func TestSessionEnumeration(t *testing.T) {
	im := compileImage(t, memberSrc, "member(X, [1,2,3]).")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.Begin(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for s.Next(context.Background()) {
		got = append(got, s.Solution().String())
	}
	if s.Err() != nil || s.Suspended() {
		t.Fatalf("err=%v suspended=%v", s.Err(), s.Suspended())
	}
	if want := "X = 1; X = 2; X = 3"; strings.Join(got, "; ") != want {
		t.Fatalf("solutions %q, want %q", strings.Join(got, "; "), want)
	}
	if fin := s.Solution(); fin == nil || fin.Success {
		t.Fatalf("final outcome %+v, want failure", fin)
	}
	if st := pool.Stats(); st.InUse != 1 {
		t.Fatalf("open session: in_use = %d, want 1", st.InUse)
	}
	s.Close()
	s.Close() // idempotent
	if st := pool.Stats(); st.InUse != 0 || st.Built != 1 {
		t.Fatalf("after close: %+v, want 0 in use of 1 built", pool.Stats())
	}
	if s.Result().Stats.Cycles == 0 {
		t.Fatal("Close lost the final counters")
	}
	if s.Next(context.Background()) || !errors.Is(s.Err(), engine.ErrSessionClosed) {
		t.Fatalf("Next after Close: err=%v, want ErrSessionClosed", s.Err())
	}
}

// TestSessionBudgetResume: a tiny per-Next budget suspends the search
// instead of erroring; repeated Next calls resume it to the very same
// solutions an unbounded session yields.
func TestSessionBudgetResume(t *testing.T) {
	im := compileImage(t, nrevSrc+memberSrc,
		"nrev([1,2,3,4,5,6,7,8], R), member(X, [a,b]).")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.Begin(context.Background(), im, engine.WithBudget(50))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []string
	suspensions := 0
	for {
		if s.Next(context.Background()) {
			got = append(got, s.Solution().String())
			continue
		}
		if s.Suspended() {
			suspensions++
			if suspensions > 1_000_000 {
				t.Fatal("never completed")
			}
			continue
		}
		break
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if suspensions == 0 {
		t.Fatal("budget of 50 never suspended; test is vacuous")
	}
	want := "R = [8,7,6,5,4,3,2,1], X = a; R = [8,7,6,5,4,3,2,1], X = b"
	if sj := strings.Join(got, "; "); sj != want {
		t.Fatalf("resumed solutions:\n got %s\nwant %s", sj, want)
	}
}

// TestSessionDeadlineResumable: a per-Next context deadline surfaces
// as machine.ErrDeadline but leaves the session resumable — the next
// Next call (with a live context) continues the search.
func TestSessionDeadlineResumable(t *testing.T) {
	im := compileImage(t, memberSrc+"slow(X) :- member(X, [1,2,3]), spin(200000).\nspin(0).\nspin(N) :- N > 0, M is N - 1, spin(M).\n",
		"slow(X).")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.Begin(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if s.Next(expired) {
		t.Fatal("Next succeeded under an expired context")
	}
	if !errors.Is(s.Err(), machine.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", s.Err())
	}
	if !s.Next(context.Background()) {
		t.Fatalf("session did not resume after deadline: err=%v", s.Err())
	}
	if got := s.Solution().String(); got != "X = 1" {
		t.Fatalf("first solution after resume = %q", got)
	}
}

// TestSessionSetBudget: the per-slice budget can be replaced between
// Next calls (each network request carries its own).
func TestSessionSetBudget(t *testing.T) {
	im := compileImage(t, nrevSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R).")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.Begin(context.Background(), im, engine.WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Next(context.Background()) || !s.Suspended() {
		t.Fatal("budget 10 should suspend nrev/10")
	}
	s.SetBudget(10_000_000)
	if !s.Next(context.Background()) {
		t.Fatalf("raised budget did not finish: err=%v suspended=%v", s.Err(), s.Suspended())
	}
	if got := s.Solution().Vars["R"].String(); got != "[10,9,8,7,6,5,4,3,2,1]" {
		t.Fatalf("R = %s", got)
	}
}

// TestPoolOptions: New's functional options set the machine
// configuration and the pool size, and two concurrent sessions build
// the full complement.
func TestPoolOptions(t *testing.T) {
	im := compileImage(t, nrevSrc, "nrev([1,2,3,4,5], R).")
	pool := engine.New(engine.WithConfig(machine.Config{}), engine.WithPoolSize(2))
	if pool.Size() != 2 {
		t.Fatalf("Size = %d, want 2", pool.Size())
	}
	ctx := context.Background()
	var held []*engine.Session
	for i := 0; i < 2; i++ {
		s, err := pool.Begin(ctx, im)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	for _, s := range held {
		if !s.Next(ctx) || !s.Solution().Success {
			t.Fatalf("query: %v %v", s.Err(), s.Solution())
		}
		s.Close()
	}
	if st := pool.Stats(); st.Built != 2 || st.InUse != 0 {
		t.Fatalf("after two sessions: %+v, want 2 built, 0 in use", st)
	}
}

// TestPoolRejectsSharedHook: every machine of a pool would share a
// configured trace hook, and hooks are not safe for concurrent use, so
// New refuses one.
func TestPoolRejectsSharedHook(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a configuration carrying a trace hook")
		}
	}()
	engine.New(engine.WithConfig(machine.Config{Hook: trace.NewProfiler()}))
}
