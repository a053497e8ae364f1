package machine

import (
	"strings"
	"testing"

	"repro/internal/term"
)

// nrev generates plenty of garbage: every intermediate reversal is
// dead as soon as the next level consumes it.
const nrevSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).
`

func TestGCCollectsGarbage(t *testing.T) {
	m, res, err := run(t, nrevSrc, "mklist(60, L), nrev(L, R), nrev(R, _RR).",
		Config{GCThresholdWords: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("query failed under GC")
	}
	gs := m.Result().GC
	if gs.Collections == 0 {
		t.Fatal("threshold never triggered a collection")
	}
	if gs.FreedWords == 0 {
		t.Fatal("collector freed nothing on a garbage-heavy workload")
	}
	t.Logf("collections=%d live=%d freed=%d", gs.Collections, gs.LiveWords, gs.FreedWords)
}

func TestGCPreservesAnswers(t *testing.T) {
	// The same queries with and without GC must produce identical
	// bindings (forwarding must not corrupt live terms).
	queries := []string{
		"mklist(40, L), nrev(L, R).",
		"mklist(25, L), nrev(L, R), nrev(R, RR), app(RR, R, Z), nrev(Z, W), app(W, [x], V), nrev(V, R2).",
		"app(A, B, [1,2,3,4,5,6]), nrev(A, AR), nrev(B, BR), app(AR, BR, R).",
	}
	for _, q := range queries {
		base, resBase, err := run(t, nrevSrc, q, Config{})
		if err != nil || !resBase.Success {
			t.Fatalf("%q without GC: %v %v", q, err, resBase.Success)
		}
		gcm, resGC, err := run(t, nrevSrc, q, Config{GCThresholdWords: 512})
		if err != nil || !resGC.Success {
			t.Fatalf("%q with GC: %v %v", q, err, resGC.Success)
		}
		// Compare the R binding (environment slot 1-ish: look it up by
		// compiling again — simpler: compare all shared query vars).
		slots := map[term.Var]int{}
		_ = slots
		bb := base.QueryBindings(queryVarsFor(t, nrevSrc, q))
		gb := gcm.QueryBindings(queryVarsFor(t, nrevSrc, q))
		for v, tb := range bb {
			if strings.Contains(tb.String(), "_G") {
				continue
			}
			if gb[v].String() != tb.String() {
				t.Fatalf("%q: %s differs under GC:\n  base: %v\n  gc:   %v", q, v, tb, gb[v])
			}
		}
	}
}

// queryVarsFor recompiles the query to recover its variable slots
// (both runs share the same compiler, so slots agree).
func queryVarsFor(t *testing.T, src, query string) map[term.Var]int {
	t.Helper()
	im := buildImage(t, src, query)
	return im.QueryVars
}

func TestGCAcrossBacktracking(t *testing.T) {
	// Backtracking after collections: the forwarded choice-point
	// watermarks and trail must still restore a consistent state.
	src := nrevSrc + `
pick(X, [X|_]).
pick(X, [_|T]) :- pick(X, T).
probe(N) :- mklist(N, L), pick(X, L), nrev(L, R), pick(X, R), X < 3, !.
`
	m, res, err := run(t, src, "probe(30).", Config{GCThresholdWords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("probe failed under GC")
	}
	if m.Result().GC.Collections == 0 {
		t.Skip("no collection triggered; enlarge the workload")
	}
}

func TestGCBoundsHeapGrowth(t *testing.T) {
	// A loop that makes garbage every iteration must run in a tiny
	// heap when GC is on, and trap when it is off.
	src := `
churn(0).
churn(N) :- mk(N, _), M is N - 1, churn(M).
mk(N, [N, N, N, N]).
`
	small := Config{GlobalBase: 0x10000, GlobalSize: 0x800, GCOnOverflow: Off}
	if _, _, err := run(t, src, "churn(2000).", small); err == nil {
		t.Fatal("expected heap overflow without GC")
	}
	smallGC := small
	smallGC.GCThresholdWords = 0x400
	m, res, err := run(t, src, "churn(2000).", smallGC)
	if err != nil || !res.Success {
		t.Fatalf("with GC: %v %v", err, res.Success)
	}
	if m.Result().GC.Collections == 0 {
		t.Fatal("GC never ran")
	}
}

func TestGCSuiteEquivalence(t *testing.T) {
	// Aggressive collection over richer control flow: deep cuts,
	// if-then-else and negation all survive forwarding.
	src := nrevSrc + `
filter([], []).
filter([H|T], R) :- ( H mod 2 =:= 0 -> R = [H|R1] ; R = R1 ), filter(T, R1).
sum([], 0).
sum([H|T], S) :- sum(T, S1), S is S1 + H.
`
	q := "mklist(50, L), filter(L, E), nrev(E, R), sum(R, S)."
	base, r1, err := run(t, src, q, Config{})
	if err != nil || !r1.Success {
		t.Fatal(err)
	}
	gcm, r2, err := run(t, src, q, Config{GCThresholdWords: 384})
	if err != nil || !r2.Success {
		t.Fatal(err)
	}
	vars := queryVarsFor(t, src, q)
	sb := base.QueryBindings(vars)["S"]
	sg := gcm.QueryBindings(vars)["S"]
	if sb.String() != sg.String() {
		t.Fatalf("sum differs: %v vs %v", sb, sg)
	}
	if gcm.Result().GC.Collections == 0 {
		t.Skip("workload too small to trigger GC")
	}
}
