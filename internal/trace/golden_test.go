package trace_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "regenerate the golden trace files in testdata/")

// goldenEvents is how much of the execution prefix the golden files
// pin: enough to cover boot, the first call chains, choice-point
// creation and the first backtracks of both programs.
const goldenEvents = 200

// goldenPrograms are the benchmark programs whose trace prefix is
// pinned: the deterministic list workhorse and a backtracking search.
var goldenPrograms = []string{"nrev1", "queens"}

// TestGoldenTrace pins the first 200 trace events (kind, opcode,
// address, predicate) of a cold run of each program. Cycle totals
// alone cannot see a changed execution path whose cost happens to
// cancel out; this test can. Regenerate with
//
//	go test ./internal/trace/ -run TestGoldenTrace -update
//
// after any *intentional* change to compilation or execution order,
// and review the diff of testdata/ like code.
func TestGoldenTrace(t *testing.T) {
	for _, prog := range goldenPrograms {
		prog := prog
		t.Run(prog, func(t *testing.T) {
			got := traceLines(t, prog)
			path := filepath.Join("testdata", prog+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			wantB, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			want := string(wantB)
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("execution path diverged from %s at event %d:\n got  %s\n want %s\n(rerun with -update if the change is intentional)",
						path, i+1, g, w)
				}
			}
		})
	}
}

func traceLines(t *testing.T, prog string) string {
	t.Helper()
	rec := trace.NewRecorder(goldenEvents)
	runHooked(t, prog, rec)
	var b strings.Builder
	for _, ln := range rec.Lines() {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

// runHooked runs a benchmark program cold on a fresh machine with h
// attached.
func runHooked(t *testing.T, prog string, h trace.Hook) {
	t.Helper()
	p, ok := bench.ByName(prog)
	if !ok {
		t.Fatalf("unknown benchmark program %q", prog)
	}
	im, err := bench.Compile(p, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(im, machine.Config{Hook: h})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		t.Fatalf("%s: no query entry", prog)
	}
	if _, err := m.Run(entry); err != nil {
		t.Fatal(err)
	}
}

// TestTextMatchesRecorder: the streaming text sink behind kcm -trace
// and the recorder behind the golden files render a whole run
// identically, line for line, so both share one text format.
func TestTextMatchesRecorder(t *testing.T) {
	const limit = 1 << 20
	rec := trace.NewRecorder(limit)
	var sb strings.Builder
	text := trace.NewText(&sb)
	runHooked(t, "queens", trace.Tee(rec, text))
	if err := text.Close(); err != nil {
		t.Fatal(err)
	}
	lines := rec.Lines()
	if len(lines) <= goldenEvents || len(lines) >= limit {
		t.Fatalf("recorded %d events; want a whole run past the golden prefix", len(lines))
	}
	got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(got) != len(lines) {
		t.Fatalf("text sink wrote %d lines, recorder rendered %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d differs:\n text     %s\n recorder %s", i+1, got[i], lines[i])
		}
	}
}

// TestGoldenTraceDeterministic guards the golden files' foundation:
// two identical runs produce identical event streams (no map-order or
// host-state leakage into the trace).
func TestGoldenTraceDeterministic(t *testing.T) {
	a := traceLines(t, "queens")
	b := traceLines(t, "queens")
	if a != b {
		t.Fatal("two identical runs produced different traces")
	}
}

// TestGoldenSeqContiguous asserts the recorded prefix carries the
// machine's event sequence numbers 1..N with no gap — i.e. no event
// kind is emitted outside the recorder's view.
func TestGoldenSeqContiguous(t *testing.T) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(goldenEvents)
	m, err := machine.New(im, machine.Config{Hook: rec})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if _, err := m.Run(entry); err != nil {
		t.Fatal(err)
	}
	for i, ev := range rec.Events() {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if n := len(rec.Events()); n != goldenEvents {
		t.Fatalf("recorded %d events, want %d", n, goldenEvents)
	}
}

var _ = fmt.Sprintf // keep fmt available for debugging edits
