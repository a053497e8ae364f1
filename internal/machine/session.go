package machine

import (
	"context"
	"math"

	"repro/internal/trace"
)

// This file is the resumable session face of the machine: the KCM of
// the paper is a back-end processor driven by a host that dispatches
// goals and consumes streams of solutions, so execution must be a
// first-class, interruptible object rather than a run-to-halt loop.
// Begin and RunFor are the only way to run a machine:
//
//	m.Begin(entry)                  // boot, no instruction executed
//	st, err := m.RunFor(ctx, n)     // a bounded slice of execution
//	...                             // Suspended: call RunFor again to
//	                                // continue; Halted with success:
//	                                // call RunFor again to backtrack
//	                                // into the next solution
//
// The enumeration phase lives in the machine's halted and failed
// flags alone, which every snapshot carries.

// Status reports how a RunFor slice ended.
type Status int

const (
	// Suspended: the step budget ran out before the machine halted.
	// The machine state is intact; call RunFor again to continue.
	Suspended Status = iota + 1
	// Halted: the machine executed halt or halt_fail;
	// Result().Success distinguishes the two.
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

// DefaultBudget is the step budget a host gives each RunFor slice when
// it sets none.
const DefaultBudget = 1_000_000_000

// Begin boots the machine at entry without executing an instruction,
// arming a resumable session. Counters are NOT cleared — pair with
// Reset when a warm machine starts a fresh query.
func (m *Machine) Begin(entry uint32) {
	m.bootstrap(entry)
}

// RunFor executes up to budget instructions (0 = unbounded) of the
// current session, polling ctx every CheckStride steps. On a machine
// that halted with a solution it first backtracks into the topmost
// choice point (redo), so successive calls enumerate the solutions.
// It returns
//
//   - (Halted, nil) when the machine executed halt or halt_fail, and
//     again, without running, on every call after halt_fail: the
//     enumeration is exhausted;
//   - (Suspended, nil) when the budget ran out first — the session
//     is intact and RunFor may be called again to continue;
//   - (0, err) on a machine fault (err wraps the taxonomy sentinel,
//     and every later call returns it again) or on context
//     cancellation (err wraps ErrCancelled or ErrDeadline; the machine
//     itself is left fault-free, so a pooled machine can be Reset and
//     reused).
//
// Exhausting the budget is a resumable state, never a fault.
func (m *Machine) RunFor(ctx context.Context, budget uint64) (Status, error) {
	if m.halted && !m.failed && m.err == nil {
		m.redo()
	}
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

// redo forces a failure into the topmost choice point of a machine
// that halted with success, so the slice that follows backtracks into
// the remaining alternatives and searches for the next solution. When
// no alternatives remain the search reaches the bottom choice point,
// whose saved continuation is the halt_fail word at code address 0,
// and halts with failure — the enumeration is exhausted.
func (m *Machine) redo() {
	m.halted = false
	before := m.stats.Cycles
	// Dispatch through the normal failure path: a still-pending shallow
	// try resumes at its shadow alternative, anything else restores the
	// top choice point.
	m.fail()
	if m.hook != nil {
		m.emit(trace.Event{Kind: trace.KRedo, P: m.p, Cycles: m.stats.Cycles - before})
	}
}

// Result snapshots the outcome so far without ending the session: the
// counters the evaluation section reports plus the memory-system
// statistics.
func (m *Machine) Result() Result {
	return Result{
		Success: m.halted && !m.failed,
		Stats:   m.stats,
		DCache:  m.dcache.Stats(),
		CCache:  m.icache.Stats(),
		Mem:     m.phys.Stats(),
		DataMMU: m.dmmu.Stats(),
		GC:      m.gcStats,
	}
}
