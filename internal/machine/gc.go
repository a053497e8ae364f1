package machine

import (
	"errors"

	"repro/internal/gc"
	"repro/internal/trace"
	"repro/internal/word"
)

// Garbage collection for the global stack.
//
// The KCM data word reserves two GC bits and the zone-check unit is
// explicitly designed to trigger collection when a stack crosses a
// soft limit (section 3.2.3); the collector itself runs as machine
// code. The algorithm lives in internal/gc: a pointer-reversal mark
// over the root set using the word's GC bits, a sliding compaction
// (cell order — and therefore the saved H watermarks — survives), and
// trail compression. This file binds it to the machine: the store
// adapter, the root set, the cost model, and the overflow-retry
// policy that turns ErrHeapOverflow from a fatal fault into a
// collection point.
//
// Collection runs either at a call boundary (the size-threshold
// trigger, where the machine state is minimal) or at an arbitrary
// instruction that overflowed the heap mid-execution. The second case
// is why the collector clamps half-built blocks at the heap top and
// forwards pointers AT H: every heap-allocating instruction is
// written to be restartable, and after a collection the faulting
// instruction re-runs against the compacted heap.

// GCStats counts collector activity.
type GCStats struct {
	Collections uint64
	LiveWords   uint64
	FreedWords  uint64
	TrailDrops  uint64 // trail entries dropped by compression
	Cycles      uint64
}

// gcCyclesPerWord is the modelled software cost of scanning and
// moving one word during collection (mark + update + slide).
const gcCyclesPerWord = 4

// gcLayout hands the machine's frame geometry to the collector.
var gcLayout = gc.Layout{
	EnvLink: 0, EnvSize: 2, EnvHeader: envHeader,
	CPPrev: cpPrev, CPE: cpE, CPH: cpH, CPTR: cpTR,
	CPArity: cpArity, CPHeader: cpHeader,
}

// machineStore adapts the machine's untimed, cache-coherent access
// path to the collector's Store interface.
type machineStore struct{ m *Machine }

func (s machineStore) Read(z word.Zone, a uint32) word.Word     { return s.m.peek(z, a) }
func (s machineStore) Write(z word.Zone, a uint32, w word.Word) { s.m.poke(z, a, w) }

// maybeGC runs a collection when the heap has grown past the
// configured threshold. Called at call/execute boundaries.
func (m *Machine) maybeGC() {
	if m.gcThreshold == 0 || m.h < m.cfg.GlobalBase+m.gcThreshold {
		return
	}
	m.collect()
}

// collect performs one collection of [GlobalBase, H), charging the
// simulated cost to the cycle counter and emitting gc_start/gc_end
// trace events when a hook is installed. The cost is tracked
// separately in GCStats.Cycles so the traced loop can attribute it to
// the <gc> pseudo-predicate instead of the interrupted instruction.
func (m *Machine) collect() {
	base := m.cfg.GlobalBase
	used := m.h - base
	if used == 0 {
		return
	}
	if m.hook != nil {
		m.emit(trace.Event{Kind: trace.KGCStart, P: m.traceP, Addr: m.h})
	}
	roots := gc.Roots{
		Regs: m.regs[:], E: m.e, B: m.b,
		H: &m.h, HB: &m.hb, ShadowH: &m.shadowH, S: &m.s,
		TR: &m.tr, ShadowTR: &m.shadowTR,
		HeapBase: base, TrailBase: m.cfg.TrailBase,
	}
	res := gc.Collect(machineStore{m}, &roots, gcLayout)
	m.gcStats.Collections++
	m.gcStats.LiveWords += uint64(res.Live)
	m.gcStats.FreedWords += uint64(res.Freed)
	m.gcStats.TrailDrops += uint64(res.TrailDropped)
	cost := uint64(used) * gcCyclesPerWord
	m.gcStats.Cycles += cost
	m.stats.Cycles += cost
	if m.hook != nil {
		m.emit(trace.Event{Kind: trace.KGCEnd, P: m.traceP, Addr: m.h,
			Arg: uint64(res.Freed), Cycles: cost})
	}
}

// recoverHeap decides whether a heap-overflow fault can be cleared by
// collecting. It returns true when the faulting instruction should be
// retried: overflow collection is enabled, the fault is
// ErrHeapOverflow, this is not an immediate repeat of the same
// instruction (an instruction that faults again with nothing executed
// in between cannot be satisfied by collection — typically a wild
// out-of-bounds read classified as overflow, or a heap genuinely too
// small), and the collection left at least the configured watermark
// of free space. On refusal the original fault stands.
func (m *Machine) recoverHeap(addr uint32) bool {
	if !m.gcOnOverflow || !errors.Is(m.err, ErrHeapOverflow) {
		return false
	}
	if addr == m.gcRetryAddr && m.stats.Instrs == m.gcRetryInstr+1 {
		return false
	}
	m.err = nil // collection writes through the fault-checking path
	m.collect()
	if m.err != nil {
		return false
	}
	free := m.cfg.GlobalBase + m.cfg.GlobalSize - m.h
	if free < m.heapWatermark {
		m.errw(ErrHeapOverflow, "collection left %d words free, watermark %d",
			free, m.heapWatermark)
		return false
	}
	m.gcRetryAddr, m.gcRetryInstr = addr, m.stats.Instrs
	return true
}

// poke writes a data word bypassing timing but staying coherent with
// the cache (the collector runs as privileged machine code; its
// traffic is charged in bulk by gcCyclesPerWord).
func (m *Machine) poke(z word.Zone, a uint32, w word.Word) {
	if _, err := m.dcache.Write(a, z, w); err != nil && m.err == nil {
		m.err = err
	}
}
