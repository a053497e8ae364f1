package machine

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
)

// TestProfileAttributesCycles runs naive reverse under trace.Profiler,
// the machine's per-predicate cycle monitor, and checks that append
// ranks first and that every simulated cycle is attributed.
func TestProfileAttributesCycles(t *testing.T) {
	src := `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).
`
	im := buildImage(t, src, "mklist(25, L), nrev(L, _R).")
	prof := trace.NewProfiler()
	m, err := New(im, Config{Hook: prof})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	res, err := m.Run(entry)
	if err != nil || !res.Success {
		t.Fatal(err)
	}
	rows := prof.Rows()
	var out strings.Builder
	trace.RenderProfile(&out, rows, res.Stats.Cycles)
	if len(rows) < 3 {
		t.Fatalf("profile too small:\n%s", out.String())
	}
	// In naive reverse, append dominates (quadratic); it must rank
	// first by self cycles.
	var top trace.Row
	for _, r := range rows {
		if r.Self > top.Self {
			top = r
		}
	}
	if top.Name != "app/3" {
		t.Fatalf("heaviest predicate is %s, want app/3\n%s", top.Name, out.String())
	}
	// Boot, redo, fault and gc buckets included, attribution is exact.
	if prof.Total() != res.Stats.Cycles {
		t.Fatalf("attributed %d of %d cycles", prof.Total(), res.Stats.Cycles)
	}
	t.Logf("\n%s", out.String())
}
