// Package trace is the observability layer of the KCM simulator, and
// the only way to observe a running machine: a structured event
// stream emitted by the machine's step loop and memory system, and
// the consumers built on it — first-N recorders, streaming text and
// JSONL sinks, and the per-predicate cycle profiler.
//
// The design constraint, inherited from the paper's hardware
// monitors, is that observation must not perturb the measurement:
// with no hook installed the machine pays nothing (the hot loop is
// untouched), and with a hook installed every simulated counter —
// cycles, cache statistics, MMU statistics — is byte-identical to an
// untraced run. Events carry cycle *attribution*, never cycle
// *costs*; internal/bench's conservation test enforces both
// properties over the whole benchmark suite.
package trace

import "repro/internal/kcmisa"

// Kind classifies a trace event.
type Kind uint8

const (
	// KInstr is one executed instruction: P is its code address, Op
	// its opcode, Cycles the simulated microcycles the instruction
	// consumed including its code fetch, data traffic and cache
	// misses — but not garbage collection it triggered, which is
	// carried by KGCEnd. Summing KInstr, KBoot, KRedo, KFault and
	// KGCEnd cycles reproduces the machine's total cycle counter
	// exactly.
	KInstr Kind = iota + 1
	// KCall marks a call boundary: Addr is the callee's entry point.
	// Emitted after the call instruction's own KInstr event, and also
	// by the call/1 meta-call escape.
	KCall
	// KExecute marks a last-call (tail-call) boundary: Addr is the
	// callee's entry point; the callee replaces the caller.
	KExecute
	// KProceed marks a return: Addr is the continuation address.
	KProceed
	// KCPCreate is a materialised choice point: Addr is its frame
	// address on the choice-point stack, Arg the saved arity.
	KCPCreate
	// KCPRestore is a deep fail: Addr is the restored choice point's
	// frame address, Arg the resumption code address.
	KCPRestore
	// KCPPop is a discarded top choice point (trust): Addr is the
	// popped frame's address.
	KCPPop
	// KCut is a cut: Addr is the new top choice point (B after the
	// cut).
	KCut
	// KFailShallow is a shallow fail: Addr is the resumption address
	// (the next clause of the predicate being tried).
	KFailShallow
	// KTrail is a trail push: Addr is the trailed cell's address, Arg
	// its zone.
	KTrail
	// KDCacheMiss is a data-cache miss: Addr is the word address, Arg
	// bit 0 is 1 for a write miss, bits 1.. the zone.
	KDCacheMiss
	// KCCacheMiss is a code-cache read miss: Addr is the code address.
	KCCacheMiss
	// KMMUTrap is a memory-management trap: Arg is the mmu.TrapKind.
	KMMUTrap
	// KMMUPage is a demand-allocated page: Addr is the virtual
	// address whose page was mapped.
	KMMUPage
	// KBoot marks a session boot (Machine.Begin): P is the entry
	// address, Addr the bottom choice point, Cycles the bootstrap
	// cost (the bottom choice-point save).
	KBoot
	// KRedo is a host-forced backtrack (a RunFor slice continuing
	// after a solution): P is the resumption address, Cycles the cost
	// of the forced failure.
	KRedo
	// KFault is a machine fault detected during instruction fetch;
	// Cycles is the cost charged before the fault stopped the step.
	KFault
	// KSuspend marks a RunFor slice ending on its step budget with
	// the session intact; P is the next instruction.
	KSuspend
	// KResume marks a RunFor slice starting; P is the next
	// instruction. The first slice after Begin also emits it.
	KResume
	// KReset marks Machine.Reset: every simulated counter was cleared,
	// so stateful consumers (the profiler) clear with it.
	KReset
	// KHalt marks halt or halt_fail; Arg is 1 for halt_fail.
	KHalt
	// KGCStart marks the beginning of a heap collection: P is the
	// owning instruction's address, Addr the heap top (H) before
	// collection.
	KGCStart
	// KGCEnd marks the end of a heap collection: Addr is the
	// compacted heap top, Arg the number of words freed, Cycles the
	// modelled collection cost (attributed to the <gc>
	// pseudo-predicate, not the interrupted instruction).
	KGCEnd
)

var kindNames = [...]string{
	KInstr: "instr", KCall: "call", KExecute: "execute", KProceed: "proceed",
	KCPCreate: "cp_create", KCPRestore: "cp_restore", KCPPop: "cp_pop",
	KCut: "cut", KFailShallow: "fail_shallow", KTrail: "trail",
	KDCacheMiss: "dcache_miss", KCCacheMiss: "ccache_miss",
	KMMUTrap: "mmu_trap", KMMUPage: "mmu_page",
	KBoot: "boot", KRedo: "redo", KFault: "fault",
	KSuspend: "suspend", KResume: "resume", KReset: "reset", KHalt: "halt",
	KGCStart: "gc_start", KGCEnd: "gc_end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "invalid"
}

// Event is one structured trace record. Events are passed by value so
// emission never allocates; sinks that retain events copy them.
type Event struct {
	Seq    uint64 // monotonic per machine, 1-based
	Cycles uint64 // cycles attributed to this event (see Kind docs)
	Arg    uint64 // kind-specific payload
	P      uint32 // code address of the owning instruction
	Addr   uint32 // kind-specific address
	Kind   Kind
	Op     kcmisa.Op // opcode for KInstr and derived control events
}

// Hook consumes the event stream. Implementations are bound to one
// machine and need not be safe for concurrent use, so give every
// machine its own hook.
type Hook interface {
	Emit(Event)
}

// tee fans one event stream out to several hooks.
type tee []Hook

func (t tee) Emit(ev Event) {
	for _, h := range t {
		h.Emit(ev)
	}
}

// BindPreds propagates the predicate table to every sub-hook that
// wants one.
func (t tee) BindPreds(tbl *PredTable) {
	for _, h := range t {
		if b, ok := h.(PredBinder); ok {
			b.BindPreds(tbl)
		}
	}
}

// Tee combines hooks into one; a single hook is returned unwrapped
// and nil hooks are dropped.
func Tee(hooks ...Hook) Hook {
	var hs tee
	for _, h := range hooks {
		if h != nil {
			hs = append(hs, h)
		}
	}
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	return hs
}
