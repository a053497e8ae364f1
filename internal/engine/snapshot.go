package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dyndb"
	"repro/internal/machine"
)

// Session park and resume: a suspended database session serialized to
// a snapshot blob (machine.State), releasable to disk or another
// process, and resumed onto any pooled machine later — the BinProlog
// first-class-engine idea taken across the process boundary, and the
// mechanism behind kcmd sessions surviving a daemon restart. An engine
// parks the way it leases: BeginGoal, Suspend, ResumeGoal.
//
// Besides the machine state and its session phase, which Capture
// derives from the machine itself, the blob carries the solutions
// delivered, the step budget and the dynamic database version the
// installed delta was materialized from. ResumeGoal re-creates the
// code environment with BeginGoal's own lease step (same delta
// install, same goal block at the same frontier) and then proves it got
// the same bytes via the blob's image hash before any state is
// restored.

// Suspend/resume sentinel errors.
var (
	// ErrNotSuspendable reports a session that cannot be parked: its
	// enumeration has already ended (exhausted, failed or faulted), so
	// there is nothing left to park, or it was leased from a whole
	// image by Begin, which ResumeGoal could not bring back.
	ErrNotSuspendable = errors.New("engine: session not suspendable")
	// ErrStaleDelta reports a resume against a tenant database that
	// has been mutated, reloaded or rolled back since the snapshot was
	// taken: the parked blob references a delta that no longer exists,
	// and restoring it would run stale code.
	ErrStaleDelta = errors.New("engine: tenant database changed since snapshot")
)

// Suspend serializes a database session — machine state and phase,
// delivered count, budget and the database delta version — into a
// snapshot blob and closes the session, releasing its machine back to
// the pool. The enumeration must still be live: mid-stream after a
// solution, budget-suspended, or not yet started. The blob can be
// resumed in this process or another with ResumeGoal. A session leased
// by Begin is refused with ErrNotSuspendable and stays open.
func (s *Session) Suspend() ([]byte, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.ended() {
		return nil, fmt.Errorf("%w: enumeration already ended", ErrNotSuspendable)
	}
	if s.l.db == nil {
		return nil, fmt.Errorf("%w: session leased from a whole image; only database sessions park", ErrNotSuspendable)
	}
	st, err := s.l.m.Capture()
	if err != nil {
		return nil, err
	}
	st.SessDelivered = uint64(s.delivered)
	st.SessBudget = s.budget
	// The delta version the machine's code was materialized from,
	// offset by one so zero stays unambiguously "whole image, no delta"
	// (what a whole-image session of an older daemon parked).
	st.DeltaVersion = s.l.view.Version + 1
	st.DeltaTop = s.l.view.Top
	blob := st.Encode()
	s.Close()
	return blob, nil
}

// ResumeGoal restores a suspended session of g over db: the lease
// installs the database's delta and loads g's block exactly as
// BeginGoal would, the blob's image hash proves the reconstruction
// reproduced the code the session ran against, and the machine state
// is restored on top. The database must still be at the version the
// blob was parked from — any assert, retract, reload or rollback since
// makes the parked delta stale and the resume fails with
// ErrStaleDelta. A blob an older daemon parked from a whole image
// carries no delta and is refused with machine.ErrImageMismatch; one
// whose session phase disagrees with its machine state, or carries
// none, fails to decode with machine.ErrBadSnapshot. Options may
// override the parked step budget.
func (p *Pool) ResumeGoal(ctx context.Context, db *dyndb.DB, g *Goal, blob []byte, options ...Option) (*Session, error) {
	var o opts
	for _, opt := range options {
		opt(&o)
	}
	st, err := machine.DecodeState(blob)
	if err != nil {
		return nil, err
	}
	if st.DeltaVersion == 0 {
		return nil, fmt.Errorf("%w: snapshot parked from a whole image carries no database delta",
			machine.ErrImageMismatch)
	}
	if got := db.Version(); st.DeltaVersion-1 != got {
		return nil, fmt.Errorf("%w: snapshot at version %d, database now %d",
			ErrStaleDelta, st.DeltaVersion-1, got)
	}
	l, qim, err := p.leaseGoal(ctx, db, g)
	if err != nil {
		return nil, err
	}
	if l.view.Top != st.DeltaTop {
		// Same version but a different frontier can only mean the
		// database object is not the one the blob was parked from.
		err = fmt.Errorf("%w: snapshot delta frontier %d, database view %d",
			ErrStaleDelta, st.DeltaTop, l.view.Top)
	} else {
		err = l.m.Restore(st)
	}
	if err != nil {
		p.release(l)
		return nil, err
	}
	if o.budget == 0 {
		o.budget = st.SessBudget
	}
	return &Session{
		p: p, l: l, im: qim, budget: p.budget(o.budget),
		delivered: int(st.SessDelivered),
	}, nil
}
