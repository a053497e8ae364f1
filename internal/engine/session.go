package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
)

// Session is a first-class pooled query: a machine leased from the
// pool with a booted goal, enumerated one solution at a time and
// returned to the pool on Close. This is the BinProlog "first-class
// logic engine" shape — an engine is a server-side resource a client
// creates, runs, suspends and resumes — and it is what the kcmd
// network front-end parks in its session table between requests.
//
// The iteration protocol is the one core.Solutions uses:
//
//	s, err := pool.BeginGoal(ctx, db, goal, engine.WithBudget(100_000))
//	for s.Next(ctx) {
//	    use(s.Solution())
//	}
//	switch {
//	case s.Err() != nil:   // fault, cancellation or deadline
//	case s.Suspended():    // step budget ran out; Next resumes
//	default:               // enumeration exhausted
//	}
//	s.Close()
//
// Unlike core.Solutions, a context cancellation or deadline does NOT
// end the session: RunFor leaves the machine intact at a stride
// boundary, so the error is reported once through Err and the next
// Next call resumes the search — exactly what a per-request deadline
// over a long enumeration needs.
//
// A Session is not safe for concurrent use; callers multiplexing one
// session across goroutines (the kcmd session table) serialize access
// themselves.
type Session struct {
	p      *Pool
	l      *lease // nil once closed
	im     *asm.Image
	budget uint64

	cur       *core.Solution // last outcome (success or the final failure)
	err       error
	ctxErr    bool // err came from ctx: resumable, cleared on next Next
	suspended bool
	delivered int
	closed    bool
	final     machine.Result // counters captured at Close
}

// ErrSessionClosed is returned through Session.Err by operations on a
// closed session.
var ErrSessionClosed = errors.New("engine: session closed")

// Begin leases a warm machine from the pool and boots the image's
// query on it without executing an instruction. The caller owns the
// returned session until Close, which releases the machine; the
// pool's acquire path provides admission control — Begin blocks when
// every machine is leased, until one is released or ctx ends.
func (p *Pool) Begin(ctx context.Context, im *asm.Image, options ...Option) (*Session, error) {
	var o opts
	for _, opt := range options {
		opt(&o)
	}
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		return nil, fmt.Errorf("engine: image has no query entry point")
	}
	l, err := p.acquire(ctx, im, nil)
	if err != nil {
		return nil, err
	}
	l.m.Reset() // also clears any fault a previous query left behind
	l.m.Begin(entry)
	return &Session{p: p, l: l, im: im, budget: p.budget(o.budget)}, nil
}

// SetBudget replaces the per-slice step budget for subsequent Next
// calls (0 keeps the current budget). The kcmd next-solution verb uses
// it to let every request carry its own budget.
func (s *Session) SetBudget(n uint64) {
	if n > 0 {
		s.budget = n
	}
}

// Next advances the enumeration by at most one budget slice. It
// returns true with a new solution available from Solution, and false
// when the search is exhausted, failed, suspended on its step budget,
// interrupted by ctx, or faulted; check Suspended and Err to tell the
// cases apart. After a budget suspension or a ctx interruption,
// calling Next again resumes the search where it stopped.
func (s *Session) Next(ctx context.Context) bool {
	s.suspended = false
	if s.closed {
		s.err = ErrSessionClosed
		return false
	}
	if s.ended() {
		return false
	}
	// A cancellation or deadline stopped RunFor at a stride boundary
	// with the machine intact; a fresh Next resumes.
	s.err, s.ctxErr = nil, false
	st, err := s.l.m.RunFor(ctx, s.budget)
	if err != nil {
		s.err = err
		s.ctxErr = errors.Is(err, machine.ErrCancelled) || errors.Is(err, machine.ErrDeadline)
		return false
	}
	if st == machine.Suspended {
		s.suspended = true
		return false
	}
	res := s.l.m.Result()
	if !res.Success {
		s.cur = &core.Solution{Success: false, Result: res}
		return false
	}
	s.cur = &core.Solution{
		Success: true,
		// Read back before any release: the bindings live in this
		// machine's simulated memory (the term builder's slabs keep
		// earlier solutions valid after Close).
		Vars:   s.l.m.QueryBindings(s.im.QueryVars),
		Result: res,
	}
	s.delivered++
	return true
}

// ended reports whether the enumeration is over: the last outcome was
// the final failure, or a fault (not a resumable context error)
// stopped it.
func (s *Session) ended() bool {
	return s.cur != nil && !s.cur.Success || s.err != nil && !s.ctxErr
}

// Solution returns the outcome of the last Next call that produced
// one: the current solution after Next reported true, or the final
// failed outcome (Success=false, counters populated) once the search
// is exhausted.
func (s *Session) Solution() *core.Solution { return s.cur }

// Suspended reports whether the last Next call stopped on its step
// budget rather than an outcome; the search resumes on the next Next.
func (s *Session) Suspended() bool { return s.suspended }

// Err returns the error the last Next call hit, if any. An error
// wrapping machine.ErrCancelled or machine.ErrDeadline is resumable
// (the next Next continues the search); any other error ends the
// session's enumeration.
func (s *Session) Err() error { return s.err }

// Delivered is how many solutions the session has produced.
func (s *Session) Delivered() int { return s.delivered }

// Result snapshots the machine counters accumulated since Begin —
// cumulative across the whole enumeration. After Close it returns the
// counters captured at close time.
func (s *Session) Result() machine.Result {
	if s.closed {
		return s.final
	}
	return s.l.m.Result()
}

// Close ends the session and releases the machine for the next query.
// The final counters stay readable through Result. Close is
// idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.final = s.l.m.Result()
	s.p.release(s.l)
	s.l = nil
}
