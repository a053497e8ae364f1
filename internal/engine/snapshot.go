package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// Session park and resume: a suspended database session serialized to
// a snapshot blob, releasable to disk or another process, and resumed
// onto any pooled machine later — the BinProlog first-class-engine
// idea taken across the process boundary, and the mechanism behind
// kcmd sessions surviving a daemon restart. An engine parks and comes
// back through the one path kcmd serves: BeginGoal/BeginDyn, Suspend,
// ResumeDyn.
//
// The blob embeds, besides the machine state, a small session block
// (enumeration phase, solutions delivered, step budget) and the
// dynamic database version the installed delta was materialized from.
// ResumeDyn re-creates the code environment the same way BeginGoal
// would (same delta install, same goal block at the same frontier) and
// then proves it got the same bytes via the blob's image hash before
// any state is restored.

// Suspend/resume sentinel errors.
var (
	// ErrNotSuspendable reports a session that cannot be parked: its
	// enumeration has already ended (exhausted, failed or faulted), so
	// there is nothing left to park, or it was leased from a whole
	// image by Begin, which ResumeDyn could not bring back.
	ErrNotSuspendable = errors.New("engine: session not suspendable")
	// ErrStaleDelta reports a resume against a tenant database that
	// has been mutated, reloaded or rolled back since the snapshot was
	// taken: the parked blob references a delta that no longer exists,
	// and restoring it would run stale code.
	ErrStaleDelta = errors.New("engine: tenant database changed since snapshot")
	// ErrNoSession reports a resume from a blob that carries bare
	// machine state with no session block.
	ErrNoSession = errors.New("engine: snapshot carries no session")
)

// Session-state values carried in the blob's session block. 0 is
// reserved for "no session" (a bare machine capture). The phase is the
// captured machine's own: a parked machine that halted has a solution
// out, and its next RunFor backtracks for the one after.
const (
	blobSessRun  = 1 // machine running: fresh, budget- or ctx-suspended
	blobSessRedo = 2 // machine halted with a solution out
)

// blobPhase is the session state a blob of machine state st carries.
func blobPhase(st *snapshot.State) uint8 {
	if st.Halted && !st.Failed {
		return blobSessRedo
	}
	return blobSessRun
}

// Suspend serializes a database session — machine state, enumeration
// phase, delivered count, budget and the database delta version — into
// a snapshot blob and closes the session, releasing its machine back
// to the pool. The enumeration must still be live: mid-stream after a
// solution, budget-suspended, or not yet started. The blob can be
// resumed in this process or another with ResumeDyn. A session leased
// by Begin is refused with ErrNotSuspendable and stays open.
func (s *Session) Suspend() ([]byte, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.ended() {
		return nil, fmt.Errorf("%w: enumeration already ended", ErrNotSuspendable)
	}
	s.p.mu.Lock()
	ds := s.p.dyn[s.m]
	s.p.mu.Unlock()
	if ds == nil || ds.db == nil {
		return nil, fmt.Errorf("%w: session leased from a whole image; only database sessions park", ErrNotSuspendable)
	}
	st, err := s.m.Capture()
	if err != nil {
		return nil, err
	}
	st.SessState = blobPhase(st)
	st.SessDelivered = uint64(s.delivered)
	st.SessBudget = s.budget
	// The delta version the machine's code was materialized from,
	// offset by one so zero stays unambiguously "whole image, no delta"
	// (what a whole-image session of an older daemon parked).
	st.DeltaVersion = ds.view.Version + 1
	st.DeltaTop = ds.view.Top
	blob := snapshot.Encode(st)
	s.Close()
	return blob, nil
}

// ResumeDyn restores a suspended database session: the goal is
// recompiled and the database's delta re-installed exactly as
// BeginGoal would, the blob's image hash proves the reconstruction
// reproduced the code the session ran against, and the machine state
// is restored on top. The database must still be at the version the
// blob was parked from — any assert, retract, reload or rollback since
// makes the parked delta stale and the resume fails with
// ErrStaleDelta. A blob an older daemon parked from a whole image
// carries no delta and is refused with machine.ErrImageMismatch.
// Options may override the parked step budget.
func (p *Pool) ResumeDyn(ctx context.Context, db *dyndb.DB, goal term.Term, blob []byte, options ...Option) (*Session, error) {
	var o opts
	for _, opt := range options {
		opt(&o)
	}
	st, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	if st.SessState == 0 {
		return nil, ErrNoSession
	}
	if st.SessState != blobPhase(st) {
		return nil, fmt.Errorf("%w: session state %d disagrees with the machine's halted=%v failed=%v",
			machine.ErrBadSnapshot, st.SessState, st.Halted, st.Failed)
	}
	if st.DeltaVersion == 0 {
		return nil, fmt.Errorf("%w: snapshot parked from a whole image carries no database delta",
			machine.ErrImageMismatch)
	}
	if got := db.Version(); st.DeltaVersion-1 != got {
		return nil, fmt.Errorf("%w: snapshot at version %d, database now %d",
			ErrStaleDelta, st.DeltaVersion-1, got)
	}
	g, err := CompileGoal(db.Syms(), goal)
	if err != nil {
		return nil, err
	}
	m, ip, err := p.acquire(ctx, db.Image(), db)
	if err != nil {
		return nil, err
	}
	qim, top, err := p.load(m, db, g)
	if err == nil && top != st.DeltaTop {
		// Same version but a different frontier can only mean the
		// database object is not the one the blob was parked from.
		err = fmt.Errorf("%w: snapshot delta frontier %d, database view %d",
			ErrStaleDelta, st.DeltaTop, top)
	}
	if err == nil {
		err = m.Restore(st)
	}
	if err != nil {
		p.release(ip, m)
		return nil, err
	}
	if o.budget == 0 {
		o.budget = st.SessBudget
	}
	return &Session{
		p: p, ip: ip, m: m, im: qim, budget: p.budget(o.budget),
		delivered: int(st.SessDelivered),
	}, nil
}
