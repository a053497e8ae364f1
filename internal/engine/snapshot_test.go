package engine_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
	"repro/internal/term"
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

// neverParked enumerates goal over db to exhaustion on a fresh pool:
// the reference a parked and resumed session must reproduce.
func neverParked(t *testing.T, db *dyndb.DB, goal term.Term) ([]solutionTrace, machine.Result) {
	t.Helper()
	s, err := engine.New(engine.WithPoolSize(1)).BeginDyn(context.Background(), db, goal)
	if err != nil {
		t.Fatal(err)
	}
	ref := enumerate(t, s)
	s.Close()
	if len(ref) != 3 {
		t.Fatalf("reference delivered %d solutions, want 3", len(ref))
	}
	return ref, s.Result()
}

// resumeMatches resumes blob, parked after `park` solutions, on a
// DIFFERENT pool (fresh machines — the in-process stand-in for another
// process) and requires the redo-driven continuation to deliver the
// rest of ref with the same counters, and to finish on refFinal's.
func resumeMatches(t *testing.T, db *dyndb.DB, goal term.Term, blob []byte, park int, ref []solutionTrace, refFinal machine.Result) {
	t.Helper()
	r, err := engine.New(engine.WithPoolSize(1)).ResumeDyn(context.Background(), db, goal, blob)
	if err != nil {
		t.Fatalf("park=%d: ResumeDyn: %v", park, err)
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
	if got, want := countersOf(r.Result()), countersOf(refFinal); got != want {
		t.Fatalf("park=%d: final counters differ:\n got %+v\nwant %+v", park, got, want)
	}
}

// TestSuspendResumeByteIdentical is the correctness bar of parking at
// the engine level: park a database session at every point of its
// enumeration, resume the blob on a fresh pool, and the continuation
// must deliver the same solutions with the same cycle counts and cache
// statistics as a session that was never suspended.
func TestSuspendResumeByteIdentical(t *testing.T) {
	db := seedDB(t, nrevSrc+memberSrc)
	goal := parse(t, goldenGoal)
	ref, refFinal := neverParked(t, db, goal)

	for park := 0; park <= len(ref); park++ {
		// Deliver `park` solutions, then suspend.
		poolA := engine.New(engine.WithPoolSize(1))
		s, err := poolA.BeginDyn(context.Background(), db, goal)
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
		resumeMatches(t, db, goal, blob, park, ref, refFinal)
	}
}

// TestSuspendBudgetSuspended: a session parked while budget-suspended
// (mid-slice, no solution out) resumes to the same answers.
func TestSuspendBudgetSuspended(t *testing.T) {
	db := seedDB(t, nrevSrc)
	goal := parse(t, "nrev([1,2,3,4,5,6,7,8,9,10], R)")
	pool := engine.New(engine.WithPoolSize(1))
	s, err := pool.BeginDyn(context.Background(), db, goal, engine.WithBudget(50))
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
	r, err := pool.ResumeDyn(context.Background(), db, goal, blob, engine.WithBudget(10_000_000))
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
	ctx := context.Background()
	db := seedDB(t, memberSrc)
	goal := parse(t, "member(X, [1])")
	other := parse(t, "member(X, [1,2])")
	im := compileImage(t, memberSrc, "member(X, [1]).")
	pool := engine.New(engine.WithPoolSize(1))

	// Exhausted session: nothing left to park.
	s, err := pool.BeginDyn(ctx, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	for s.Next(ctx) {
	}
	if _, err := s.Suspend(); !errors.Is(err, engine.ErrNotSuspendable) {
		t.Fatalf("suspend exhausted: %v, want ErrNotSuspendable", err)
	}
	s.Close()
	if _, err := s.Suspend(); !errors.Is(err, engine.ErrSessionClosed) {
		t.Fatalf("suspend closed: %v, want ErrSessionClosed", err)
	}

	// A whole-image session has no way back, so it does not park.
	sb, err := pool.Begin(ctx, im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Suspend(); !errors.Is(err, engine.ErrNotSuspendable) {
		t.Fatalf("suspend of a Begin session: %v, want ErrNotSuspendable", err)
	}
	sb.Close()

	// A live blob to abuse below.
	s2, err := pool.BeginDyn(ctx, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s2.Suspend()
	if err != nil {
		t.Fatal(err)
	}

	// Resuming as a different goal is refused by the image hash.
	if _, err := pool.ResumeDyn(ctx, db, other, blob); !errors.Is(err, machine.ErrImageMismatch) {
		t.Fatalf("cross-goal resume: %v, want ErrImageMismatch", err)
	}

	// A session block with no database delta, as an older daemon
	// parked a whole-image session, is refused too.
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(mustEntry(t, im))
	st, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	st.SessState = 1
	if _, err := pool.ResumeDyn(ctx, db, goal, snapshot.Encode(st)); !errors.Is(err, machine.ErrImageMismatch) {
		t.Fatalf("no-delta blob via ResumeDyn: %v, want ErrImageMismatch", err)
	}

	// A bare machine capture (no session block) is not resumable.
	if _, err := runToHalt(m, mustEntry(t, im)); err != nil {
		t.Fatal(err)
	}
	bare, err := m.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ResumeDyn(ctx, db, goal, bare); !errors.Is(err, engine.ErrNoSession) {
		t.Fatalf("bare capture resume: %v, want ErrNoSession", err)
	}

	// Garbage bytes surface the snapshot package's typed errors.
	if _, err := pool.ResumeDyn(ctx, db, goal, blob[:10]); err == nil {
		t.Fatal("truncated blob accepted")
	}

	// The pool must still be healthy after every refusal.
	r, err := pool.BeginDyn(ctx, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Next(ctx) {
		t.Fatalf("pool unhealthy after refusals: %v", r.Err())
	}
	if got := r.Solution().String(); got != "X = 1" {
		t.Fatalf("pool unhealthy after refusals: %s", got)
	}
}

var update = flag.Bool("update", false, "rewrite the golden parked blob in testdata/")

// goldenBlob is a session parked the way kcmd parks one: nrev of 8
// elements then member/2 over a seed database, suspended after its
// first solution.
const goldenBlob = "testdata/nrev8_member.blob"

// goldenGoal is the goal the golden blob was parked from.
const goldenGoal = "nrev([1,2,3,4,5,6,7,8], R), member(X, [a,b,c])"

// TestParkedBlobGolden pins the snapshot format a daemon writes to its
// -state directory. A fresh capture of the scenario must equal the
// committed bytes, and the committed blob must resume on a fresh pool
// over a freshly seeded database (a restarted daemon) to the same
// solutions and counters as a run that was never parked. Regenerate
// with
//
//	go test ./internal/engine/ -run TestParkedBlobGolden -update
//
// only for an intended format or simulation change: every blob an
// older daemon parked stops resuming with it.
func TestParkedBlobGolden(t *testing.T) {
	ctx := context.Background()
	goal := parse(t, goldenGoal)

	s, err := engine.New(engine.WithPoolSize(1)).BeginDyn(ctx, seedDB(t, nrevSrc+memberSrc), goal)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next(ctx) {
		t.Fatalf("first solution: err=%v", s.Err())
	}
	blob, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.FromSlash(goldenBlob)
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(blob, golden) {
		t.Fatalf("parked blob (%d bytes) differs from %s (%d bytes)", len(blob), goldenBlob, len(golden))
	}

	// A restarted daemon: a freshly seeded database and fresh pools.
	db := seedDB(t, nrevSrc+memberSrc)
	ref, refFinal := neverParked(t, db, goal)
	resumeMatches(t, db, goal, golden, 1, ref, refFinal)
}

// TestResumeRefusesPhaseMismatch: a blob's session phase must agree
// with the machine state it carries. The golden blob was parked after
// one solution, so its machine halted with success and its session
// state says a solution is out (2); relabelled as a running session
// (1) it is refused with machine.ErrBadSnapshot before any machine is
// leased, and the unmodified blob still resumes.
func TestResumeRefusesPhaseMismatch(t *testing.T) {
	ctx := context.Background()
	goal := parse(t, goldenGoal)
	golden, err := os.ReadFile(filepath.FromSlash(goldenBlob))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot.Encode(st), golden) {
		t.Fatal("golden blob does not re-encode to its own bytes")
	}
	if st.SessState != 2 || !st.Halted || st.Failed {
		t.Fatalf("golden blob: session state %d, halted=%v failed=%v; want 2, true, false",
			st.SessState, st.Halted, st.Failed)
	}
	st.SessState = 1
	mismatched := snapshot.Encode(st)

	db := seedDB(t, nrevSrc+memberSrc)
	pool := engine.New(engine.WithPoolSize(1))
	if _, err := pool.ResumeDyn(ctx, db, goal, mismatched); !errors.Is(err, machine.ErrBadSnapshot) {
		t.Fatalf("phase-mismatched blob: %v, want ErrBadSnapshot", err)
	}
	s, err := pool.ResumeDyn(ctx, db, goal, golden)
	if err != nil {
		t.Fatalf("unmodified blob: %v", err)
	}
	defer s.Close()
	if !s.Next(ctx) {
		t.Fatalf("resumed golden blob found no next solution: err=%v", s.Err())
	}
}
