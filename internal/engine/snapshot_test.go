package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

func mustEntry(t *testing.T, im *asm.Image) uint32 {
	t.Helper()
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		t.Fatal("image has no query entry")
	}
	return entry
}

// counterSet is the comparable subset of machine.Result — every
// simulated counter, minus the maps and slices (bindings are compared
// through the rendered text).
type counterSet struct {
	success        bool
	stats          machine.Stats
	dcache, ccache cache.Stats
	mem            mem.Stats
	dmmu           mmu.Stats
	gc             machine.GCStats
}

func countersOf(r machine.Result) counterSet {
	return counterSet{r.Success, r.Stats, r.DCache, r.CCache, r.Mem, r.DataMMU, r.GC}
}

// solutionTrace records everything observable about one delivered
// solution: the rendered bindings and the full simulated counter set
// at the moment of delivery.
type solutionTrace struct {
	text   string
	result counterSet
}

func snapTrace(s *engine.Session) solutionTrace {
	sol := s.Solution()
	return solutionTrace{text: sol.String(), result: countersOf(sol.Result)}
}

// enumerate drives a session to exhaustion, tracing each solution.
func enumerate(t *testing.T, s *engine.Session) []solutionTrace {
	t.Helper()
	var out []solutionTrace
	for s.Next(context.Background()) {
		out = append(out, snapTrace(s))
	}
	if s.Err() != nil || s.Suspended() {
		t.Fatalf("enumerate: err=%v suspended=%v", s.Err(), s.Suspended())
	}
	return out
}

// TestSuspendResumeByteIdentical is the tentpole's correctness bar at
// the engine level: park a session mid-enumeration, resume the blob on
// a DIFFERENT pool (fresh machines — the in-process stand-in for
// another process), and the Redo-driven continuation must deliver the
// same solutions with the same cycle counts and cache statistics as a
// session that was never suspended.
func TestSuspendResumeByteIdentical(t *testing.T) {
	im := compileImage(t, nrevSrc+memberSrc,
		"nrev([1,2,3,4,5,6,7,8], R), member(X, [a,b,c]).")

	// Reference: uninterrupted enumeration.
	refPool := engine.New(engine.WithPoolSize(1))
	rs, err := refPool.Begin(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	ref := enumerate(t, rs)
	rs.Close()
	refFinal := rs.Result()
	if len(ref) != 3 {
		t.Fatalf("reference delivered %d solutions, want 3", len(ref))
	}

	for park := 0; park <= len(ref); park++ {
		// Deliver `park` solutions, then suspend.
		poolA := engine.New(engine.WithPoolSize(1))
		s, err := poolA.Begin(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < park; i++ {
			if !s.Next(context.Background()) {
				t.Fatalf("park=%d: solution %d missing", park, i)
			}
			if got := snapTrace(s); got != ref[i] {
				t.Fatalf("park=%d sol %d diverged before suspend:\n got %+v\nwant %+v",
					park, i, got, ref[i])
			}
		}
		blob, err := s.Suspend()
		if err != nil {
			t.Fatalf("park=%d: Suspend: %v", park, err)
		}
		if st := poolA.Stats(); st.InUse != 0 {
			t.Fatalf("park=%d: Suspend leaked the machine (in_use=%d)", park, st.InUse)
		}

		// Resume on a different pool: fresh machines, same image.
		poolB := engine.New(engine.WithPoolSize(1))
		r, err := poolB.Resume(context.Background(), im, blob)
		if err != nil {
			t.Fatalf("park=%d: Resume: %v", park, err)
		}
		if r.Delivered() != park {
			t.Fatalf("park=%d: Delivered()=%d after resume", park, r.Delivered())
		}
		rest := enumerate(t, r)
		if len(rest) != len(ref)-park {
			t.Fatalf("park=%d: resumed session delivered %d more, want %d",
				park, len(rest), len(ref)-park)
		}
		for j, got := range rest {
			if got != ref[park+j] {
				t.Fatalf("park=%d sol %d after resume differs:\n got %+v\nwant %+v",
					park, park+j, got, ref[park+j])
			}
		}
		r.Close()
		if fin := r.Result(); fin.Stats != refFinal.Stats ||
			fin.DCache != refFinal.DCache || fin.CCache != refFinal.CCache ||
			fin.GC != refFinal.GC {
			t.Fatalf("park=%d: final counters differ:\n got %+v\nwant %+v",
				park, fin, refFinal)
		}
	}
}

// TestSuspendBudgetSuspended: a session parked while budget-suspended
// (mid-slice, no solution out) resumes to the same answers.
func TestSuspendBudgetSuspended(t *testing.T) {
	im := compileImage(t, nrevSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R).")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.Begin(context.Background(), im, engine.WithBudget(50))
	if err != nil {
		t.Fatal(err)
	}
	if s.Next(context.Background()) || !s.Suspended() {
		t.Fatal("budget 50 should suspend nrev/10 mid-run")
	}
	blob, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	r, err := pool.Resume(context.Background(), im, blob, engine.WithBudget(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Next(context.Background()) {
		t.Fatalf("resumed session: err=%v suspended=%v", r.Err(), r.Suspended())
	}
	if got := r.Solution().Vars["R"].String(); got != "[10,9,8,7,6,5,4,3,2,1]" {
		t.Fatalf("R = %s", got)
	}
}

// TestSuspendResumeErrors pins the typed failure modes of the park
// and resume paths.
func TestSuspendResumeErrors(t *testing.T) {
	im := compileImage(t, memberSrc, "member(X, [1]).")
	other := compileImage(t, memberSrc, "member(X, [1,2]).")
	pool := engine.New(engine.WithPoolSize(1))

	// Exhausted session: nothing left to park.
	s, err := pool.Begin(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	for s.Next(context.Background()) {
	}
	if _, err := s.Suspend(); !errors.Is(err, engine.ErrNotSuspendable) {
		t.Fatalf("suspend exhausted: %v, want ErrNotSuspendable", err)
	}
	s.Close()
	if _, err := s.Suspend(); !errors.Is(err, engine.ErrSessionClosed) {
		t.Fatalf("suspend closed: %v, want ErrSessionClosed", err)
	}

	// A live blob to abuse below.
	s2, err := pool.Begin(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s2.Suspend()
	if err != nil {
		t.Fatal(err)
	}

	// Resuming onto a different compile is refused by the image hash.
	if _, err := pool.Resume(context.Background(), other, blob); !errors.Is(err, machine.ErrImageMismatch) {
		t.Fatalf("cross-image resume: %v, want ErrImageMismatch", err)
	}
	// A static blob cannot be resumed through the tenant path.
	if _, err := pool.ResumeDyn(context.Background(), nil, nil, blob); err == nil ||
		errors.Is(err, engine.ErrNoSession) {
		t.Fatalf("static blob via ResumeDyn: %v, want delta-direction error", err)
	}

	// A bare machine capture (no session block) is not resumable.
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(mustEntry(t, im)); err != nil {
		t.Fatal(err)
	}
	bare, err := m.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Resume(context.Background(), im, bare); !errors.Is(err, engine.ErrNoSession) {
		t.Fatalf("bare capture resume: %v, want ErrNoSession", err)
	}

	// Garbage bytes surface the snapshot package's typed errors.
	if _, err := pool.Resume(context.Background(), im, blob[:10]); err == nil {
		t.Fatal("truncated blob accepted")
	}

	// The pool must still be healthy after every refusal.
	sol, err := firstSolution(context.Background(), pool, im)
	if err != nil || sol.String() != "X = 1" {
		t.Fatalf("pool unhealthy after refusals: %v %v", sol, err)
	}
}
