package machine

import (
	"fmt"

	"repro/internal/kcmisa"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/word"
)

// This file is the traced twin of the fetch-execute loop. The design
// rule, inherited from the paper's hardware monitors, is that
// observation must not perturb the measurement:
//
//   - disabled (no hook installed), the hot loop in exec.go runs
//     untouched — steps() pays one nil-check per chunk, the inner
//     emission sites in runtime.go one never-taken branch each, and
//     nothing allocates (the nrev 0-allocs/op pin holds);
//   - enabled, every simulated counter — cycles, cache statistics,
//     MMU statistics — is byte-identical to an untraced run, because
//     events only *attribute* cycles already charged, never charge
//     any. internal/bench's conservation test pins both properties
//     over the benchmark suite.
//
// stepsTraced therefore duplicates steps() line for line rather than
// sharing one loop. That is measured, not assumed: a single loop with
// every emission behind m.hook != nil ran the untraced warm nrev 9%
// and qsort 13% slower than the twin (median ratio over 12
// interleaved pairs of BenchmarkHost*, slower in 11 and 9 of them, on
// a 2-CPU shared host). Any change to steps() must be mirrored; the
// pinned fingerprints catch a divergence immediately.

// emit stamps the per-machine sequence number and delivers one event.
// Callers guard on m.hook != nil.
func (m *Machine) emit(ev trace.Event) {
	m.evSeq++
	ev.Seq = m.evSeq
	m.hook.Emit(ev)
}

// installTraceHooks routes the memory system's miss/trap callbacks
// into the event stream. Called once at construction, after the batch
// code load (whose page allocations are untimed and untraced).
func (m *Machine) installTraceHooks() {
	m.dcache.OnMiss = func(write bool, va uint32, z word.Zone) {
		var wbit uint64
		if write {
			wbit = 1
		}
		m.emit(trace.Event{Kind: trace.KDCacheMiss, P: m.traceP, Addr: va, Arg: wbit | uint64(z)<<1})
	}
	m.icache.OnMiss = func(va uint32) {
		m.emit(trace.Event{Kind: trace.KCCacheMiss, P: m.traceP, Addr: va})
	}
	onTrap := func(t *mmu.Trap) {
		m.emit(trace.Event{Kind: trace.KMMUTrap, P: m.traceP, Addr: t.Addr.Value(), Arg: uint64(t.Kind)})
	}
	onPage := func(va uint32) {
		m.emit(trace.Event{Kind: trace.KMMUPage, P: m.traceP, Addr: va})
	}
	m.dmmu.OnTrap, m.dmmu.OnPageFault = onTrap, onPage
	m.cmmu.OnTrap, m.cmmu.OnPageFault = onTrap, onPage
}

// Hook returns the machine's trace hook (nil when tracing is off).
func (m *Machine) Hook() trace.Hook { return m.hook }

// stepsTraced is steps() with event emission: per-instruction KInstr
// events carrying the instruction's exact cycle delta (fetch + execute
// + data traffic, with any garbage-collection cost subtracted out —
// the collector attributes it to KGCEnd instead), control-boundary
// events derived from the opcode, and a KFault event covering cycles
// charged by a fetch that faulted before execution.
func (m *Machine) stepsTraced(limit uint64) uint64 {
	steps := uint64(0)
	instrumented := m.prof != nil || m.hostProf != nil
	for !m.halted && m.err == nil && steps < limit {
		addr := m.p
		m.traceP = addr
		before := m.stats.Cycles
		gcBefore := m.gcStats.Cycles
		var in *kcmisa.Instr
		var nw int
		if int64(addr) < int64(len(m.pwidth)) {
			w := m.pwidth[addr]
			steps++
			in = &m.pdec[addr]
			if w != 0 {
				nw = int(w & pwWidthMask)
				if w&pwResident != 0 {
					m.icache.NoteReads(nw)
				} else {
					cost, allHit, err := m.icache.Touch(addr, nw)
					m.stats.Cycles += uint64(cost)
					if err != nil && m.err == nil {
						m.err = classifyTrap(err)
					}
					if allHit && m.pdecResidentOK {
						m.pwidth[addr] = w | pwResident
					}
				}
			} else {
				nw = kcmisa.DecodeInto(m.fetch, addr, in)
				if m.err == nil {
					m.pwidth[addr] = uint16(nw)
				}
			}
		} else {
			steps++
			nw = kcmisa.DecodeInto(m.fetch, addr, &m.scratch)
			in = &m.scratch
		}
		if m.err != nil {
			m.emit(trace.Event{Kind: trace.KFault, P: addr, Cycles: m.stats.Cycles - before})
			break
		}
		if m.cfg.Trace != nil {
			fmt.Fprintf(m.cfg.Trace, "%6d  %-40v %s\n", m.p, *in, m.DumpState())
		}
		m.stats.Instrs++
		m.p += uint32(nw)
		op := in.Op
		tgt := uint32(in.L)
		if instrumented {
			m.execInstrumented(addr, in)
		} else {
			m.exec(in)
		}
		m.emit(trace.Event{Kind: trace.KInstr, Op: op, P: addr,
			Cycles: m.stats.Cycles - before - (m.gcStats.Cycles - gcBefore)})
		if m.err != nil {
			// Mirror of the overflow-retry path in steps(): a heap
			// overflow may be cleared by collection, in which case the
			// faulting instruction re-runs (and re-emits its events).
			m.pendingCallSet = false
			if m.recoverHeap(addr) {
				m.p = addr
			}
			continue // a standing fault ends the loop; no boundary happened
		}
		if m.pendingCallSet {
			// A meta-call escape resolved its goal during exec; the
			// boundary event follows the owning instruction's KInstr.
			m.pendingCallSet = false
			m.emit(trace.Event{Kind: trace.KCall, Op: op, P: addr, Addr: m.pendingCall})
			continue
		}
		switch op {
		case kcmisa.Call:
			m.emit(trace.Event{Kind: trace.KCall, Op: op, P: addr, Addr: tgt})
		case kcmisa.Execute:
			m.emit(trace.Event{Kind: trace.KExecute, Op: op, P: addr, Addr: tgt})
		case kcmisa.Proceed:
			m.emit(trace.Event{Kind: trace.KProceed, Op: op, P: addr, Addr: m.p})
		case kcmisa.Cut, kcmisa.CutY:
			m.emit(trace.Event{Kind: trace.KCut, P: addr, Addr: m.b})
		case kcmisa.Halt:
			m.emit(trace.Event{Kind: trace.KHalt, P: addr})
		case kcmisa.HaltFail:
			m.emit(trace.Event{Kind: trace.KHalt, P: addr, Arg: 1})
		}
	}
	return steps
}
