// Machine snapshot and restore: the producer and consumer of
// internal/snapshot blobs. Capture serializes everything the
// simulation can observe — registers, the live stack ranges, the
// entire memory system (cache residency and dirtiness, page tables,
// the frame-allocation frontier, the DRAM open row) and every
// statistics counter — so that a Restore onto a compatible machine
// continues byte-identically: same solutions, same cycle counts, same
// cache statistics.
//
// Compatibility is gated twice, before any mutation: a configuration
// fingerprint (zone geometry, cost model, cache/GC settings — anything
// that changes simulated behaviour) and a content hash of the code
// image up to the code frontier. The code itself is never serialized;
// the restoring side is expected to have reconstructed it (same
// program compile, same tenant delta) and the hash proves it did.
//
// Host-side derived state — predecode residency and the pushdown
// list — is NOT serialized. Restore re-derives or invalidates it:
// predecode residency flags are cleared (they are claims about the
// target's code cache, which Restore just replaced) and the pdl is
// emptied (unify resets it on entry, so its content between
// instructions is dead).
package machine

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/kcmisa"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/word"
)

// Snapshot sentinel errors.
var (
	// ErrNotCapturable reports a machine whose state cannot be
	// captured: it holds a pending fault, so its registers do not
	// describe a resumable point.
	ErrNotCapturable = errors.New("machine: state not capturable")
	// ErrImageMismatch reports a snapshot taken against a different
	// code image (or code frontier) than the restore target's.
	ErrImageMismatch = errors.New("machine: snapshot image mismatch")
	// ErrConfigMismatch reports a snapshot taken under a different
	// machine configuration (zone geometry, cost model, cache or GC
	// settings) — restoring it could not be cycle-accurate.
	ErrConfigMismatch = errors.New("machine: snapshot configuration mismatch")
	// ErrBadSnapshot reports a structurally valid blob whose state is
	// inconsistent with the machine it is being restored onto (ranges
	// outside zones, wrong register count, uncovered code pages).
	ErrBadSnapshot = errors.New("machine: snapshot state inconsistent")
)

// ImageHash is the content hash of the machine's code image up to the
// current code frontier; snapshots embed it and Restore requires it to
// match.
func (m *Machine) ImageHash() uint64 {
	top := int(m.codeTop)
	if top > len(m.codeShadow) {
		top = len(m.codeShadow)
	}
	return snapshot.HashWords(m.codeShadow[:top])
}

// configFingerprint hashes every configuration input that changes
// simulated behaviour: zone geometry, cache split and prefetch, the
// hardware-assist flags, the cost table, the clock, physical memory
// size, and the GC settings. Host-only knobs (profiling, tracing, step budgets, output writers) are deliberately excluded —
// they do not affect counters, so they need not match across a
// migration.
func (m *Machine) configFingerprint() uint64 {
	if m.fingerprinted {
		return m.fingerprint
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "g%x+%x l%x+%x c%x+%x t%x+%x",
		m.cfg.GlobalBase, m.cfg.GlobalSize,
		m.cfg.LocalBase, m.cfg.LocalSize,
		m.cfg.ChoiceBase, m.cfg.ChoiceSize,
		m.cfg.TrailBase, m.cfg.TrailSize)
	fmt.Fprintf(h, " split=%v shallow=%v hwderef=%v hwtrail=%v",
		boolDefault(m.cfg.SplitDataCache, true),
		m.shallow, m.hwDeref, m.hwTrail)
	fmt.Fprintf(h, " pf=%d mem=%d cyc=%g", m.icachePrefetch(), m.phys.Size(), m.cfg.CycleNs)
	fmt.Fprintf(h, " gct=%d gcov=%v wm=%d thw=%d",
		m.gcThreshold, m.gcOnOverflow, m.heapWatermark, m.trailHighWater)
	fmt.Fprintf(h, " costs=%+v", m.costs)
	m.fingerprint, m.fingerprinted = h.Sum64(), true
	return m.fingerprint
}

// icachePrefetch re-derives the resolved prefetch depth from the
// config the same way New did.
func (m *Machine) icachePrefetch() int {
	pf := m.cfg.CodePrefetch
	if pf < 0 {
		pf = 3
	}
	return pf
}

// captureLocalTop computes the first free local-stack word exactly as
// envTop does, but through the untimed peek path so capturing does not
// perturb cache statistics.
func (m *Machine) captureLocalTop() uint32 {
	lt := m.cfg.LocalBase
	if m.e != 0 {
		size := m.peek(word.ZLocal, m.e+2)
		if size != word.Invalid() {
			lt = m.e + envHeader + size.Value()
		}
	}
	if m.bLTOP > lt {
		lt = m.bLTOP
	}
	return lt
}

// captureChoiceTop computes the first free choice-stack word (the top
// of the youngest choice point's frame), untimed.
func (m *Machine) captureChoiceTop() uint32 {
	if m.b == 0 {
		return m.cfg.ChoiceBase
	}
	ar := m.peek(word.ZChoice, m.b+cpArity)
	if ar == word.Invalid() {
		return m.cfg.ChoiceBase
	}
	return m.b + cpHeader + ar.Value()
}

// peekRange reads [base, top) of a zone through the untimed path.
// Addresses that were never written (unmapped and uncached) read as
// word.Invalid(); Restore skips them when rewriting physical memory,
// which reproduces the source machine exactly — it had no defined
// value there either.
func (m *Machine) peekRange(z word.Zone, base, top uint32) []word.Word {
	if top <= base {
		return nil
	}
	ws := make([]word.Word, top-base)
	for i := range ws {
		ws[i] = m.peek(z, base+uint32(i))
	}
	return ws
}

// Capture serializes the machine's complete simulated state. The
// machine must be at an instruction boundary (freshly booted, budget-
// suspended, or halted — which is where every caller of the session
// API naturally sits) and must not hold a pending fault.
func (m *Machine) Capture() (*snapshot.State, error) {
	if m.err != nil {
		return nil, fmt.Errorf("%w: machine holds fault: %v", ErrNotCapturable, m.err)
	}
	s := &snapshot.State{
		ConfigHash: m.configFingerprint(),
		ImageHash:  m.ImageHash(),
		CodeTop:    m.codeTop,

		Regs: append([]word.Word(nil), m.regs[:]...),
		P:    m.p, CP: m.cp,
		E: m.e, B: m.b, B0: m.b0,
		H: m.h, HB: m.hb, TR: m.tr, S: m.s,
		Mode: m.mode, SF: m.sf, CF: m.cf,
		ShadowH: m.shadowH, ShadowTR: m.shadowTR,
		ShadowNext: int32(m.shadowNext),
		BLTOP:      m.bLTOP,
		Halted:     m.halted, Failed: m.failed,
		GCRetryAddr: m.gcRetryAddr, GCRetryInstr: m.gcRetryInstr,
	}

	s.LocalTop = m.captureLocalTop()
	s.ChoiceTop = m.captureChoiceTop()
	s.Heap = m.peekRange(word.ZGlobal, m.cfg.GlobalBase, m.h)
	s.Local = m.peekRange(word.ZLocal, m.cfg.LocalBase, s.LocalTop)
	s.Choice = m.peekRange(word.ZChoice, m.cfg.ChoiceBase, s.ChoiceTop)
	s.Trail = m.peekRange(word.ZTrail, m.cfg.TrailBase, m.tr)

	s.DataLines = m.dcache.ExportLines()
	s.CodeLines = m.icache.ExportLines()
	s.DataPages = m.dmmu.ExportTable()
	s.CodePages = m.cmmu.ExportTable()
	s.FrameNext = m.dmmu.Frames().Next()
	s.OpenRow, s.OpenRowOK = m.phys.OpenRow()

	s.Counters = statsToCounters(&m.stats)
	s.GC = snapshot.GCCounters{
		Collections: m.gcStats.Collections,
		LiveWords:   m.gcStats.LiveWords,
		FreedWords:  m.gcStats.FreedWords,
		TrailDrops:  m.gcStats.TrailDrops,
		Cycles:      m.gcStats.Cycles,
	}
	s.DCache = m.dcache.Stats()
	s.CCache = m.icache.Stats()
	s.DataMMU = m.dmmu.Stats()
	s.CodeMMU = m.cmmu.Stats()
	ms := m.phys.Stats()
	s.MemReads, s.MemWrite, s.MemPageH = ms.Reads, ms.Writes, ms.PageHits
	return s, nil
}

// CaptureBlob is Capture followed by snapshot.Encode.
func (m *Machine) CaptureBlob() ([]byte, error) {
	s, err := m.Capture()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(s), nil
}

// validateRestore checks a decoded snapshot against this machine
// before anything is mutated, so a rejected restore leaves the target
// untouched.
func (m *Machine) validateRestore(s *snapshot.State) error {
	if s.ConfigHash != m.configFingerprint() {
		return fmt.Errorf("%w: blob fingerprint %#x, machine %#x", ErrConfigMismatch, s.ConfigHash, m.configFingerprint())
	}
	if s.CodeTop != m.codeTop {
		return fmt.Errorf("%w: blob code frontier %d, machine %d", ErrImageMismatch, s.CodeTop, m.codeTop)
	}
	if s.ImageHash != m.ImageHash() {
		return fmt.Errorf("%w: blob image hash %#x, machine %#x", ErrImageMismatch, s.ImageHash, m.ImageHash())
	}
	if len(s.Regs) != kcmisa.NumRegs {
		return fmt.Errorf("%w: %d registers, machine has %d", ErrBadSnapshot, len(s.Regs), kcmisa.NumRegs)
	}
	type rng struct {
		name      string
		base, top uint32
		size      uint32
		have      int
	}
	for _, r := range []rng{
		{"heap", m.cfg.GlobalBase, s.H, m.cfg.GlobalSize, len(s.Heap)},
		{"local", m.cfg.LocalBase, s.LocalTop, m.cfg.LocalSize, len(s.Local)},
		{"choice", m.cfg.ChoiceBase, s.ChoiceTop, m.cfg.ChoiceSize, len(s.Choice)},
		{"trail", m.cfg.TrailBase, s.TR, m.cfg.TrailSize, len(s.Trail)},
	} {
		if r.top < r.base || r.top > r.base+r.size {
			return fmt.Errorf("%w: %s top %#x outside zone [%#x,%#x]", ErrBadSnapshot, r.name, r.top, r.base, r.base+r.size)
		}
		if uint32(r.have) != r.top-r.base {
			return fmt.Errorf("%w: %s carries %d words for a %d-word live range", ErrBadSnapshot, r.name, r.have, r.top-r.base)
		}
	}
	if s.HB < m.cfg.GlobalBase || s.HB > s.H {
		return fmt.Errorf("%w: HB %#x outside [heap base, H=%#x]", ErrBadSnapshot, s.HB, s.H)
	}
	if s.FrameNext > m.dmmu.Frames().Max() {
		return fmt.Errorf("%w: frame frontier %d exceeds this machine's %d frames", ErrBadSnapshot, s.FrameNext, m.dmmu.Frames().Max())
	}
	// Every code page up to the frontier must be mapped, or the code
	// rewrite below would silently drop words.
	mapped := make(map[uint32]bool, len(s.CodePages))
	for _, p := range s.CodePages {
		mapped[p.VPage] = true
	}
	for vp := uint32(0); vp*mmu.PageWords < m.codeTop; vp++ {
		if !mapped[vp] {
			return fmt.Errorf("%w: code page %d below frontier %d is unmapped", ErrBadSnapshot, vp, m.codeTop)
		}
	}
	return nil
}

// Restore replaces this machine's simulated state with the snapshot's.
// The machine must present the same configuration fingerprint and the
// same code image (content hash over the same frontier) — typically
// because it was built from the same program, or because the caller
// replayed the same dynamic-code installs. On any error the target is
// untouched.
//
// Host-side derived state is rebuilt, not restored: predecode
// residency is cleared (Restore replaced the code cache contents it
// described), the pushdown list is emptied, and a KReset trace event
// tells any attached hook to clear its own shadow state.
func (m *Machine) Restore(s *snapshot.State) error {
	if err := m.validateRestore(s); err != nil {
		return err
	}

	// Memory system first: page tables and the frame frontier decide
	// physical placement, then physical contents are rewritten through
	// the new mapping, then cache residency lands on top.
	m.dmmu.ImportTable(s.DataPages)
	m.cmmu.ImportTable(s.CodePages)
	m.dmmu.Frames().SetNext(s.FrameNext)
	for a := uint32(0); a < m.codeTop; a++ {
		if pa, ok := m.cmmu.Peek(a); ok {
			m.phys.Poke(pa, m.codeShadow[a])
		}
	}
	m.pokeRange(m.cfg.GlobalBase, s.Heap)
	m.pokeRange(m.cfg.LocalBase, s.Local)
	m.pokeRange(m.cfg.ChoiceBase, s.Choice)
	m.pokeRange(m.cfg.TrailBase, s.Trail)
	m.dcache.ImportLines(s.DataLines)
	m.icache.ImportLines(s.CodeLines)

	// Statistics, wholesale.
	m.dcache.SetStats(s.DCache)
	m.icache.SetStats(s.CCache)
	m.dmmu.SetStats(s.DataMMU)
	m.cmmu.SetStats(s.CodeMMU)
	m.phys.SetStats(mem.Stats{Reads: s.MemReads, Writes: s.MemWrite, PageHits: s.MemPageH})
	m.phys.SetOpenRow(s.OpenRow, s.OpenRowOK)
	m.stats = countersToStats(&s.Counters)
	m.gcStats = GCStats{
		Collections: s.GC.Collections,
		LiveWords:   s.GC.LiveWords,
		FreedWords:  s.GC.FreedWords,
		TrailDrops:  s.GC.TrailDrops,
		Cycles:      s.GC.Cycles,
	}

	// Machine registers.
	copy(m.regs[:], s.Regs)
	m.p, m.cp = s.P, s.CP
	m.e, m.b, m.b0 = s.E, s.B, s.B0
	m.h, m.hb, m.tr, m.s = s.H, s.HB, s.TR, s.S
	m.mode, m.sf, m.cf = s.Mode, s.SF, s.CF
	m.shadowH, m.shadowTR = s.ShadowH, s.ShadowTR
	m.shadowNext = int(s.ShadowNext)
	m.bLTOP = s.BLTOP
	m.halted, m.failed = s.Halted, s.Failed
	m.gcRetryAddr, m.gcRetryInstr = s.GCRetryAddr, s.GCRetryInstr
	m.err = nil

	// Derived host state: residency claims refer to the cache contents
	// Restore just replaced, so they are re-proven from scratch; the
	// widths in pwidth are code-derived and survive (the image hash
	// matched).
	for i := range m.pwidth {
		m.pwidth[i] &^= pwResident
	}
	m.pdl = m.pdl[:0]
	m.pendingCallSet = false
	if m.hook != nil {
		m.emit(trace.Event{Kind: trace.KReset, P: m.p})
	}
	return nil
}

// RestoreBlob is snapshot.Decode followed by Restore.
func (m *Machine) RestoreBlob(b []byte) error {
	s, err := snapshot.Decode(b)
	if err != nil {
		return err
	}
	return m.Restore(s)
}

// pokeRange writes a live range into physical memory through the
// (already restored) data MMU, untimed. Unmapped pages are skipped:
// their words live only in the restored cache lines, exactly as on the
// source machine.
func (m *Machine) pokeRange(base uint32, ws []word.Word) {
	for i, w := range ws {
		if pa, ok := m.dmmu.Peek(base + uint32(i)); ok {
			m.phys.Poke(pa, w)
		}
	}
}

func statsToCounters(st *Stats) snapshot.Counters {
	return snapshot.Counters{
		NsPerCycle:   st.NsPerCycle,
		Cycles:       st.Cycles,
		Instrs:       st.Instrs,
		Inferences:   st.Inferences,
		DerefSteps:   st.DerefSteps,
		UnifyNodes:   st.UnifyNodes,
		TrailChecks:  st.TrailChecks,
		TrailPushes:  st.TrailPushes,
		ShallowTries: st.ShallowTries,
		ShallowFails: st.ShallowFails,
		DeepFails:    st.DeepFails,
		ChoicePoints: st.ChoicePoints,
		NeckUpdates:  st.NeckUpdates,
		NeckDet:      st.NeckDet,
		EnvAllocs:    st.EnvAllocs,
		Builtins:     st.Builtins,
		CPWords:      st.CPWords,
	}
}

func countersToStats(c *snapshot.Counters) Stats {
	return Stats{
		NsPerCycle:   c.NsPerCycle,
		Cycles:       c.Cycles,
		Instrs:       c.Instrs,
		Inferences:   c.Inferences,
		DerefSteps:   c.DerefSteps,
		UnifyNodes:   c.UnifyNodes,
		TrailChecks:  c.TrailChecks,
		TrailPushes:  c.TrailPushes,
		ShallowTries: c.ShallowTries,
		ShallowFails: c.ShallowFails,
		DeepFails:    c.DeepFails,
		ChoicePoints: c.ChoicePoints,
		NeckUpdates:  c.NeckUpdates,
		NeckDet:      c.NeckDet,
		EnvAllocs:    c.EnvAllocs,
		Builtins:     c.Builtins,
		CPWords:      c.CPWords,
	}
}
