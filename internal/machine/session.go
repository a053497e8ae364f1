package machine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/trace"
)

// This file is the resumable session face of the machine: the KCM of
// the paper is a back-end processor driven by a host that dispatches
// goals and consumes streams of solutions, so execution must be a
// first-class, interruptible object rather than a run-to-halt loop.
// A session is
//
//	m.Begin(entry)                  // boot, no instruction executed
//	st, err := m.RunFor(ctx, n)     // a bounded slice of execution
//	...                             // Suspended: call RunFor again
//	m.Redo()                        // force backtracking for the next
//	                                // solution, then RunFor again
//
// The legacy Run(entry) keeps its semantics (run to halt, hard
// ErrStepBudget fault at Config.MaxSteps) and shares the same hot
// loop, so the two paths produce byte-identical cycle counts and
// cache statistics for a given query.

// Status reports how a RunFor slice ended.
type Status int

const (
	// Suspended: the step budget ran out before the machine halted.
	// The machine state is intact; call RunFor again to continue.
	Suspended Status = iota + 1
	// Halted: the machine executed halt or halt_fail. Succeeded
	// distinguishes the two.
	Halted
)

func (s Status) String() string {
	switch s {
	case Suspended:
		return "suspended"
	case Halted:
		return "halted"
	default:
		return "invalid"
	}
}

// CheckStride is how many instructions RunFor executes between
// context polls. The hot loop stays free of clock reads and channel
// operations; a cancellation or deadline is therefore detected within
// one stride (tens of microseconds of host time) rather than per
// instruction.
const CheckStride = 4096

// Begin boots the machine at entry without executing an instruction,
// arming a resumable session. Counters are NOT cleared — pair with
// Reset (or ResetStats) when a warm machine starts a fresh query.
func (m *Machine) Begin(entry uint32) {
	m.bootstrap(entry)
}

// RunFor executes up to budget instructions (0 = unbounded) of the
// current session, polling ctx every CheckStride steps. It returns
//
//   - (Halted, nil) when the machine executed halt or halt_fail;
//   - (Suspended, nil) when the budget ran out first — the session
//     is intact and RunFor may be called again to continue;
//   - (0, err) on a machine fault (err wraps the taxonomy sentinel)
//     or on context cancellation (err wraps ErrCancelled or
//     ErrDeadline; the machine itself is left fault-free, so a pooled
//     machine can be Reset and reused).
//
// Unlike the legacy Run, exhausting the budget is a resumable state,
// never an ErrStepBudget fault.
func (m *Machine) RunFor(ctx context.Context, budget uint64) (Status, error) {
	if budget == 0 {
		budget = math.MaxUint64
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if m.hook != nil && !m.halted && m.err == nil {
		m.emit(trace.Event{Kind: trace.KResume, P: m.p})
	}
	for !m.halted && m.err == nil && budget > 0 {
		if done != nil {
			select {
			case <-done:
				return 0, ctxError(ctx.Err())
			default:
			}
		}
		chunk := uint64(CheckStride)
		if chunk > budget {
			chunk = budget
		}
		budget -= m.steps(chunk)
	}
	if m.err != nil {
		return 0, m.err
	}
	if m.halted {
		return Halted, nil
	}
	if m.hook != nil {
		m.emit(trace.Event{Kind: trace.KSuspend, P: m.p})
	}
	return Suspended, nil
}

// Redo forces a failure into the topmost choice point of a machine
// that halted with success, so the next RunFor slice backtracks into
// the remaining alternatives and searches for the next solution. When
// no alternatives remain the resumed run reaches the bottom choice
// point, whose saved continuation is the halt_fail word at code
// address 0, and halts with failure — the enumeration is exhausted.
//
// It returns an error wrapping ErrNotResumable if the machine is
// still running or faulted (a faulted machine's error also stays in
// the chain, so both sentinels match with errors.Is), and ErrExhausted
// if it already halted with failure. Every non-nil return leaves the
// machine untouched: calling Redo again after ErrExhausted keeps
// returning ErrExhausted and never re-runs the query.
func (m *Machine) Redo() error {
	switch {
	case m.err != nil:
		return fmt.Errorf("%w: machine faulted: %w", ErrNotResumable, m.err)
	case !m.halted:
		return ErrNotResumable
	case m.failed:
		return ErrExhausted
	}
	m.halted = false
	if m.hook != nil {
		before := m.stats.Cycles
		// Dispatch through the normal failure path: a still-pending
		// shallow try resumes at its shadow alternative, anything else
		// restores the top choice point.
		m.fail()
		m.emit(trace.Event{Kind: trace.KRedo, P: m.p, Cycles: m.stats.Cycles - before})
		return m.err
	}
	m.fail()
	return m.err
}

// Halted reports whether the machine has executed halt or halt_fail.
func (m *Machine) Halted() bool { return m.halted }

// Succeeded reports whether the machine halted in success (halt, not
// halt_fail).
func (m *Machine) Succeeded() bool { return m.halted && !m.failed }

// Result snapshots the current counters and memory-system statistics
// without ending the session; for a halted machine it is exactly what
// Run would have returned.
func (m *Machine) Result() Result { return m.result() }
