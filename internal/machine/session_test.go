package machine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/term"
)

const memberSrc = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`

const nrevTestSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`

// TestRunForParity: a query driven through the resumable session in
// tiny budget slices produces byte-identical counters — simulated
// cycles, every Stats field, both cache-stat blocks — to the same
// query run to halt in one unbounded slice.
func TestRunForParity(t *testing.T) {
	src, query := nrevTestSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R)."
	im := buildImage(t, src, query)
	entry, _ := im.Entry(compiler.QueryPI)

	m1, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runToHalt(m1, entry)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2.Begin(entry)
	slices := 0
	for {
		st, err := m2.RunFor(context.Background(), 97) // deliberately odd slice
		if err != nil {
			t.Fatal(err)
		}
		slices++
		if st == Halted {
			break
		}
		if slices > 1_000_000 {
			t.Fatal("did not halt")
		}
	}
	if slices < 2 {
		t.Fatalf("query too small to exercise suspension (%d slices)", slices)
	}
	sliced := m2.Result()

	if direct.Success != sliced.Success {
		t.Fatalf("success: %v vs %v", direct.Success, sliced.Success)
	}
	if direct.Stats != sliced.Stats {
		t.Fatalf("stats differ:\ndirect %+v\nsliced %+v", direct.Stats, sliced.Stats)
	}
	if direct.DCache != sliced.DCache || direct.CCache != sliced.CCache {
		t.Fatalf("cache stats differ:\ndirect %+v %+v\nsliced %+v %+v",
			direct.DCache, direct.CCache, sliced.DCache, sliced.CCache)
	}
	b1 := m1.QueryBindings(im.QueryVars)
	b2 := m2.QueryBindings(im.QueryVars)
	if b1[term.Var("R")].String() != b2[term.Var("R")].String() {
		t.Fatalf("bindings differ: %v vs %v", b1, b2)
	}
}

// TestRedoEnumeration drives redo-based solution enumeration at the
// machine level: each RunFor after a solution forces a failure into
// the topmost choice point, and the resumed run either finds the next
// solution or reaches the bottom choice point's halt_fail.
func TestRedoEnumeration(t *testing.T) {
	im := buildImage(t, memberSrc, "member(X, [1,2,3]).")
	entry, _ := im.Entry(compiler.QueryPI)
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(entry)
	var got []string
	for {
		st, err := m.RunFor(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st != Halted {
			t.Fatalf("status %v", st)
		}
		if !m.Result().Success {
			break
		}
		got = append(got, m.QueryBindings(im.QueryVars)[term.Var("X")].String())
	}
	want := []string{"1", "2", "3"}
	if len(got) != len(want) {
		t.Fatalf("solutions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solutions %v, want %v", got, want)
		}
	}
	if st, err := m.RunFor(nil, 0); err != nil || st != Halted || m.Result().Success {
		t.Fatalf("RunFor after exhaustion: %v %v, want Halted without success", st, err)
	}
}

// TestRunForCancellation: an already-cancelled context stops the run
// within one stride and reports ErrCancelled without poisoning the
// machine (it stays reusable after a Reset).
func TestRunForCancellation(t *testing.T) {
	im := buildImage(t, "spin :- spin.\n", "spin.")
	entry, _ := im.Entry(compiler.QueryPI)
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Begin(entry)
	_, err = m.RunFor(ctx, 10*CheckStride)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause chain lost: %v", err)
	}
	// The machine is fault-free: a fresh session still works.
	m.Reset()
	m.Begin(entry)
	if st, err := m.RunFor(context.Background(), 100); err != nil || st != Suspended {
		t.Fatalf("after reset: %v %v", st, err)
	}
}

// TestRunForDeadline: a context deadline expiring mid-run surfaces as
// ErrDeadline (still within one stride of the expiry).
func TestRunForDeadline(t *testing.T) {
	im := buildImage(t, "spin :- spin.\n", "spin.")
	entry, _ := im.Entry(compiler.QueryPI)
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	m.Begin(entry)
	_, err = m.RunFor(ctx, 0)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause chain lost: %v", err)
	}
}

// TestErrorTaxonomy pins the errors.Is classification of the typed
// machine faults.
func TestErrorTaxonomy(t *testing.T) {
	// Heap overflow: a tiny global zone.
	src := "grow(0, []).\ngrow(N, [N|T]) :- N > 0, M is N - 1, grow(M, T).\n"
	_, _, err := run(t, src, "grow(100000, _).", Config{
		GlobalBase: 0x10000, GlobalSize: 0x1000, GCOnOverflow: Off,
	})
	if !errors.Is(err, ErrHeapOverflow) {
		t.Errorf("heap overflow: %v, want ErrHeapOverflow", err)
	}
	// Choice-point overflow.
	src = "p(_) :- q.\np(_) :- q.\nq.\nr(0).\nr(N) :- p(N), M is N - 1, r(M).\n"
	_, _, err = run(t, src, "r(100000).", Config{
		ChoiceBase: 0x800000, ChoiceSize: 0x200,
	})
	if !errors.Is(err, ErrChoiceOverflow) {
		t.Errorf("choice overflow: %v, want ErrChoiceOverflow", err)
	}
	// Arithmetic faults.
	for _, q := range []string{"X is 1 // 0.", "X is Y + 1."} {
		_, _, err := run(t, "p(foo).\n", q, Config{})
		if !errors.Is(err, ErrArithmetic) {
			t.Errorf("%q: %v, want ErrArithmetic", q, err)
		}
	}
}

// TestSuspendedResumeSameBindings is the acceptance check that a
// suspended query resumes to exactly the bindings it would have
// produced uninterrupted, across many different suspension points.
func TestSuspendedResumeSameBindings(t *testing.T) {
	src, query := nrevTestSrc, "nrev([a,b,c,d,e,f], R)."
	im := buildImage(t, src, query)
	entry, _ := im.Entry(compiler.QueryPI)

	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(m, entry); err != nil {
		t.Fatal(err)
	}
	want := m.QueryBindings(im.QueryVars)[term.Var("R")].String()

	for _, budget := range []uint64{1, 7, 64, 1000} {
		m, err := New(im, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.Begin(entry)
		for {
			st, err := m.RunFor(nil, budget)
			if err != nil {
				t.Fatal(err)
			}
			if st == Halted {
				break
			}
		}
		if got := m.QueryBindings(im.QueryVars)[term.Var("R")].String(); got != want {
			t.Fatalf("budget %d: R = %s, want %s", budget, got, want)
		}
	}
}

// TestRedoExhaustedIdempotent is the regression test for the
// exhaustion contract: once the enumeration is exhausted, every
// further RunFor reports Halted without executing a single
// instruction or disturbing any counter (an earlier version fell
// through into the failure path and re-ran the query).
func TestRedoExhaustedIdempotent(t *testing.T) {
	im := buildImage(t, memberSrc, "member(X, [1,2,3]).")
	entry, _ := im.Entry(compiler.QueryPI)
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(entry)
	sols := 0
	for {
		st, err := m.RunFor(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st != Halted {
			t.Fatalf("status %v", st)
		}
		if !m.Result().Success {
			break
		}
		sols++
	}
	if sols != 3 {
		t.Fatalf("enumerated %d solutions, want 3", sols)
	}

	before := m.Result()
	for i := 0; i < 3; i++ {
		if st, err := m.RunFor(nil, 0); err != nil || st != Halted {
			t.Fatalf("RunFor %d after exhaustion: %v %v, want Halted", i+1, st, err)
		}
	}
	after := m.Result()
	if before.Stats != after.Stats {
		t.Fatalf("exhausted machine executed work:\nbefore %+v\nafter  %+v",
			before.Stats, after.Stats)
	}
	if after.Success {
		t.Fatal("exhausted machine reports success")
	}
}

// TestRedoFaultedKeepsCause: RunFor on a faulted machine returns the
// original fault again, and repeating the call changes nothing.
func TestRedoFaultedKeepsCause(t *testing.T) {
	src := "grow(0, []).\ngrow(N, [N|T]) :- N > 0, M is N - 1, grow(M, T).\n"
	im := buildImage(t, src, "grow(100000, _).")
	entry, _ := im.Entry(compiler.QueryPI)
	m, err := New(im, Config{GlobalBase: 0x10000, GlobalSize: 0x1000, GCOnOverflow: Off})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(m, entry); !errors.Is(err, ErrHeapOverflow) {
		t.Fatalf("grow run: %v, want ErrHeapOverflow", err)
	}
	before := m.Result()
	_, first := m.RunFor(nil, 0)
	if !errors.Is(first, ErrHeapOverflow) {
		t.Fatalf("RunFor on faulted machine: %v, want the fault", first)
	}
	_, second := m.RunFor(nil, 0)
	if second == nil || second.Error() != first.Error() {
		t.Fatalf("second RunFor differs: %v vs %v", second, first)
	}
	if after := m.Result(); after.Stats != before.Stats {
		t.Fatalf("faulted machine executed work:\nbefore %+v\nafter  %+v", before.Stats, after.Stats)
	}
}
