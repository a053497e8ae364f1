package machine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/mmu"
	"repro/internal/word"
)

// Exported error taxonomy. Machine faults wrap exactly one of these
// sentinels so hosts dispatch with errors.Is/As instead of parsing
// messages; the message text still carries the P-relative detail the
// diagnostics always had. Loader and verifier rejections keep their
// own typed CodeError (see loader.go) — these sentinels cover the
// run-time faults of an executing machine.
var (
	// ErrStepBudget: a query exceeded its instruction budget. The
	// machine never raises it — RunFor reports Suspended instead — but
	// hosts that treat a suspension as final (core.Program.Query, the
	// benchmark harness) wrap it.
	ErrStepBudget = errors.New("step limit exceeded")

	// ErrCancelled: the context passed to RunFor was cancelled.
	ErrCancelled = errors.New("query cancelled")

	// ErrDeadline: the context passed to RunFor hit its deadline.
	ErrDeadline = errors.New("query deadline exceeded")

	// Zone-exhaustion faults, one per stack of the data space.
	ErrHeapOverflow   = errors.New("global stack overflow")
	ErrLocalOverflow  = errors.New("local stack overflow")
	ErrChoiceOverflow = errors.New("choice-point stack overflow")
	ErrTrailOverflow  = errors.New("trail overflow")

	// ErrMemoryFault: any other memory-management trap (type
	// violation, unmapped zone, physical exhaustion, ...).
	ErrMemoryFault = errors.New("memory fault")

	// ErrIllegalOpcode: the decoder produced an opcode the execution
	// unit does not implement.
	ErrIllegalOpcode = errors.New("illegal opcode")

	// ErrArithmetic: an is/2 or comparison escape saw an unbound or
	// non-numeric operand, or divided by zero.
	ErrArithmetic = errors.New("arithmetic error")
)

// classifyTrap wraps a memory-management trap with the taxonomy
// sentinel matching its kind and zone: a bounds trap on a stack zone
// is that stack's overflow error, anything else is a memory fault.
// Non-trap errors pass through untouched.
func classifyTrap(err error) error {
	var t *mmu.Trap
	if !errors.As(err, &t) {
		return err
	}
	sentinel := ErrMemoryFault
	if t.Kind == mmu.TrapBounds {
		switch t.Addr.Zone() {
		case word.ZGlobal:
			sentinel = ErrHeapOverflow
		case word.ZLocal:
			sentinel = ErrLocalOverflow
		case word.ZChoice:
			sentinel = ErrChoiceOverflow
		case word.ZTrail:
			sentinel = ErrTrailOverflow
		}
	}
	return fmt.Errorf("%w: %w", sentinel, err)
}

// ctxError converts a context cancellation cause into the taxonomy:
// deadline expiry maps to ErrDeadline, everything else to
// ErrCancelled. The original context error stays in the chain so
// errors.Is(err, context.Canceled) keeps working too.
func ctxError(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("machine: %w: %w", ErrDeadline, cause)
	}
	return fmt.Errorf("machine: %w: %w", ErrCancelled, cause)
}
