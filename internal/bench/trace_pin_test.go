package bench

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// TestCyclePinTraced is the cycle-conservation property test of the
// observability layer, over every program in the benchmark suite:
//
//  1. Enabling tracing perturbs nothing — a fully-hooked warm run
//     produces exactly the pinned fingerprint of the untraced run
//     (cycles, inferences, cache statistics byte-identical).
//  2. Attribution is conservative — the profiler's per-predicate
//     cycles (including the boot/redo/fault buckets) sum *exactly*
//     to the machine's total cycle counter, with no cycle lost or
//     double-counted.
func TestCyclePinTraced(t *testing.T) {
	for _, p := range Suite {
		prof := trace.NewProfiler()
		// A recorder sink rides along so the event stream itself is
		// also exercised (fan-out through Tee, every kind constructed).
		rec := trace.NewRecorder(256)
		r, err := RunKCMWarm(p, false, machine.Config{Hook: trace.Tee(prof, rec)})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := fingerprint(r)
		want, ok := pinnedWarm[p.Name]
		if !ok {
			t.Errorf("%s: no pinned fingerprint (got %q)", p.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: tracing perturbed the simulation:\n got  %s\n want %s", p.Name, got, want)
		}
		if total := prof.Total(); total != r.Stats.Cycles {
			t.Errorf("%s: profiler total %d != machine cycles %d (leak of %d)",
				p.Name, total, r.Stats.Cycles, int64(r.Stats.Cycles)-int64(total))
		}
		if len(rec.Events()) == 0 {
			t.Errorf("%s: no events reached the recorder sink", p.Name)
		}
		// The folded stacks must account for every instruction cycle:
		// total minus the non-instruction buckets (boot; redo and fault
		// never fire in a straight benchmark run) and system-owned
		// instructions.
		var rowsSelf, foldedSum uint64
		for _, row := range prof.Rows() {
			if row.Name != trace.BootName && row.Name != trace.RedoName &&
				row.Name != trace.FaultName && row.Name != trace.GCName {
				rowsSelf += row.Self
			}
		}
		for _, c := range prof.FoldedMap() {
			foldedSum += c
		}
		if rowsSelf != foldedSum {
			t.Errorf("%s: folded stacks sum %d != instruction cycles %d", p.Name, foldedSum, rowsSelf)
		}
	}
}

// TestTracedColdParity pins the cold path too: the same machine run
// cold with and without a hook must agree on every counter (the warm
// pin above only covers the run after Reset).
func TestTracedColdParity(t *testing.T) {
	for _, name := range []string{"nrev1", "queens"} {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("%s: unknown program", name)
		}
		plain, err := RunKCM(p, false, machine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prof := trace.NewProfiler()
		traced, err := RunKCM(p, false, machine.Config{Hook: prof})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if a, b := fingerprint(plain), fingerprint(traced); a != b {
			t.Errorf("%s: cold traced run diverged:\n plain  %s\n traced %s", name, a, b)
		}
		if prof.Total() != traced.Stats.Cycles {
			t.Errorf("%s: cold profiler total %d != cycles %d", name, prof.Total(), traced.Stats.Cycles)
		}
	}
}
