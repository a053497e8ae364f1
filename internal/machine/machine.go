// Package machine implements the KCM processor simulator: a 64-bit
// tagged architecture executing encoded instruction words fetched
// through the logical code cache, with data traffic through the
// zone-split copy-back data cache and the RAM-page-table MMU. The
// simulator is cycle-accounted at the level the paper reports:
// per-instruction microcycle costs, dereference steps, branch and
// pipeline-break penalties, and cache-miss penalties.
package machine

import (
	"fmt"
	"io"
	"maps"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/kcmisa"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/term"
	"repro/internal/trace"
	"repro/internal/word"
)

// Default zone base addresses (word addresses in the data space).
// They are configurable so the cache-collision study can place stack
// tops on colliding or non-colliding cache indices.
const (
	DefGlobalBase = 0x0010000
	DefGlobalSize = 0x0200000
	DefLocalBase  = 0x0400000
	DefLocalSize  = 0x0100000
	DefChoiceBase = 0x0800000
	DefChoiceSize = 0x0080000
	DefTrailBase  = 0x0C00000
	DefTrailSize  = 0x0080000
)

// Config selects machine features; the zero value is completed to the
// paper configuration by New.
type Config struct {
	// Zone placement (words). Zero values select the defaults.
	GlobalBase, GlobalSize uint32
	LocalBase, LocalSize   uint32
	ChoiceBase, ChoiceSize uint32
	TrailBase, TrailSize   uint32

	// SplitDataCache selects the 8-section zone-indexed data cache
	// (the KCM design). When false the cache is a plain direct-mapped
	// 8K, the configuration of the stack-collision experiment.
	SplitDataCache *bool

	// Shallow enables delayed choice-point creation (shallow
	// backtracking). Disabling it makes every try/retry materialise a
	// full choice point immediately, the standard-WAM baseline of the
	// ablation study.
	Shallow *bool

	// HWDeref models the dereference hardware (one reference per
	// cycle). Disabled, each step costs the software-loop equivalent.
	HWDeref *bool

	// HWTrail models the parallel trail-check comparators. Disabled,
	// each trail check costs explicit compare cycles.
	HWTrail *bool

	// Out receives the output of write/1 and nl/0.
	Out io.Writer

	// MaxSteps bounds execution (0: 1e9 instructions).
	MaxSteps uint64

	// CycleNs is the cycle time in nanoseconds (0: the KCM's 80 ns).
	// Baseline cost models reuse the engine with their own clock.
	CycleNs float64

	// Costs overrides the microcycle cost table (nil: Defaults).
	Costs *Costs

	// GCThresholdWords enables the sliding mark-compact collector on
	// the global stack: when the heap grows past this many words, the
	// next call boundary collects. 0 disables the threshold trigger
	// (overflow-triggered collection below still applies).
	GCThresholdWords uint32

	// GCOnOverflow controls overflow-triggered collection: when a heap
	// push (or any global-zone bounds trap) raises ErrHeapOverflow,
	// the step loop collects and retries the faulting instruction
	// instead of surfacing the fault. nil defaults to on; set Off to
	// restore the pre-collector behavior where heap exhaustion is
	// immediately fatal.
	GCOnOverflow *bool

	// HeapWatermarkWords is the minimum free global-stack space (in
	// words) an overflow-triggered collection must leave for the
	// faulting instruction to be retried; a collection that frees less
	// surfaces ErrHeapOverflow instead of thrashing. 0 selects
	// GlobalSize/16, floored at 64 words.
	HeapWatermarkWords uint32

	// Hook receives the structured trace event stream
	// (internal/trace): instruction dispatch, control boundaries,
	// choice-point traffic, trail writes, cache misses, MMU traps,
	// session suspend/resume. nil disables tracing entirely — the hot
	// loop is untouched and no event is ever constructed. Tracing never
	// changes simulated counters; it only attributes them.
	Hook trace.Hook
}

func boolDefault(p *bool, d bool) bool {
	if p == nil {
		return d
	}
	return *p
}

// On and Off are convenience pointers for Config flags.
var (
	onv  = true
	offv = false
	On   = &onv
	Off  = &offv
)

// Stats are the run-time counters the evaluation section reports.
type Stats struct {
	NsPerCycle   float64
	Cycles       uint64
	Instrs       uint64
	Inferences   uint64 // source-level goal invocations (Klips basis)
	DerefSteps   uint64
	UnifyNodes   uint64
	TrailChecks  uint64
	TrailPushes  uint64
	ShallowTries uint64 // clause entries in shallow mode
	ShallowFails uint64
	DeepFails    uint64
	ChoicePoints uint64 // materialised at necks
	NeckUpdates  uint64 // existing choice point retargeted at a neck
	NeckDet      uint64 // necks passed with no alternatives left
	EnvAllocs    uint64
	Builtins     uint64
	CPWords      uint64 // words written saving choice points
}

// Seconds converts the cycle count to seconds at the configured
// cycle time (80 ns for KCM).
func (s Stats) Seconds() float64 {
	ns := s.NsPerCycle
	if ns == 0 {
		ns = 80
	}
	return float64(s.Cycles) * ns * 1e-9
}

// Millis returns the run time in milliseconds, the unit of Tables
// 2 and 3.
func (s Stats) Millis() float64 { return s.Seconds() * 1e3 }

// Klips returns kilo logical inferences per second.
func (s Stats) Klips() float64 {
	sec := s.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.Inferences) / sec / 1000
}

// Result is the outcome of a Run.
type Result struct {
	Success  bool
	Stats    Stats
	Bindings map[term.Var]term.Term
	DCache   cache.Stats
	CCache   cache.Stats
	Mem      mem.Stats
	DataMMU  mmu.Stats
	GC       GCStats
}

// Machine is one KCM processor with its private memory.
type Machine struct {
	cfg   Config
	costs Costs
	syms  *term.SymTab
	// tb slab-allocates the terms QueryBindings materializes; its
	// cells are write-once, so it is never reset (readback.go).
	tb term.Builder

	// The memory system is held by value, so the data-access probe
	// (readData, writeData) reaches its tables, the data-cache lines
	// and the counters it bumps at fixed offsets from m, loading no
	// pointer.
	phys   *mem.Memory
	dmmu   mmu.MMU
	cmmu   mmu.MMU
	dcache cache.Data
	icache cache.Code
	// rwin and wwin are the probe tables for reads and writes, derived
	// from the data MMU's zone descriptors by setProbe.
	rwin, wwin [256]window

	codeTop uint32

	// Register file and machine registers.
	regs [kcmisa.NumRegs]word.Word
	p    uint32 // program counter
	cp   uint32 // continuation pointer (code)
	e    uint32 // current environment (0 = none)
	b    uint32 // top choice point
	b0   uint32 // cut barrier
	h    uint32 // global stack top
	hb   uint32 // heap backtrack point
	tr   uint32 // trail top
	s    uint32 // structure pointer
	mode bool   // true = write mode

	// Shallow-backtracking state: the shadow registers and flags.
	sf         bool // shallow flag
	cf         bool // choice-point flag
	shadowH    uint32
	shadowTR   uint32
	shadowNext int

	bLTOP uint32 // cached local-stack top of the current choice point

	shallow bool
	hwDeref bool
	hwTrail bool

	halted bool
	failed bool
	err    error

	out   io.Writer
	stats Stats

	// pdl is the unification push-down list.
	pdl []word.Word

	gcThreshold    uint32
	gcOnOverflow   bool
	heapWatermark  uint32
	trailHighWater uint32 // cut tidies the trail only above this mark
	gcRetryAddr    uint32 // last instruction granted an overflow retry
	gcRetryInstr   uint64 // Instrs count when the retry was granted
	gcStats        GCStats

	// fingerprint caches configFingerprint(): the configuration is
	// immutable after New, and the fmt-based hash is too slow to
	// recompute on every snapshot capture/restore.
	fingerprint   uint64
	fingerprinted bool

	// Trace state (nil hook = tracing off; see traced.go).
	hook           trace.Hook
	evSeq          uint64 // per-machine event sequence number
	traceP         uint32 // code address of the instruction being executed
	pendingCall    uint32 // meta-call target awaiting its boundary event
	pendingCallSet bool

	// fetch is the code-fetch path bound once at construction, so the
	// fetch-execute loop never materialises a method-value closure.
	fetch kcmisa.Fetcher

	// Predecoded code cache (host-side; see predecode.go): pdec[a]
	// holds the decoded instruction at code address a and pwidth[a]
	// its width in words (0 = not decoded). scratch is the decode
	// target for addresses beyond the predecoded range.
	pdec    []kcmisa.Instr
	pwidth  []uint16
	scratch kcmisa.Instr
	// pdecResidentOK: the code image fits in the simulated code cache,
	// so a line once filled can never be evicted and the pwResident
	// fast path is sound (see predecode.go).
	pdecResidentOK bool

	// preds is the runtime predicate table for the meta-call escape:
	// predicate indicator -> code entry. It is keyed by name, not atom
	// index, so an entry never depends on which atoms happened to be
	// interned when the machine was built.
	preds map[term.Indicator]uint32

	// codeShadow is a host-side copy of the code space (shadow.go):
	// untimed reads for the dynamic-database diff, image hashing and
	// snapshot restore never go through the simulated memory system.
	codeShadow []word.Word

	// Dynamic-database state (dyn.go): dynOrig remembers the original
	// words under every PatchDyn so Rollback can restore them; the
	// dirty span accumulates untimed code writes between flushes.
	dynOrig      map[uint32]word.Word
	dynDirty     bool
	dynLo, dynHi uint32
}

// New builds a machine and loads the linked image into its code
// space.
func New(im *asm.Image, cfg Config) (*Machine, error) {
	if cfg.GlobalBase == 0 {
		cfg.GlobalBase, cfg.GlobalSize = DefGlobalBase, DefGlobalSize
	}
	if cfg.LocalBase == 0 {
		cfg.LocalBase, cfg.LocalSize = DefLocalBase, DefLocalSize
	}
	if cfg.ChoiceBase == 0 {
		cfg.ChoiceBase, cfg.ChoiceSize = DefChoiceBase, DefChoiceSize
	}
	if cfg.TrailBase == 0 {
		cfg.TrailBase, cfg.TrailSize = DefTrailBase, DefTrailSize
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000_000
	}
	costs := Defaults
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	m := &Machine{
		cfg:     cfg,
		costs:   costs,
		syms:    im.Syms,
		out:     cfg.Out,
		shallow: boolDefault(cfg.Shallow, true),
		hwDeref: boolDefault(cfg.HWDeref, true),
		hwTrail: boolDefault(cfg.HWTrail, true),
	}
	m.gcThreshold = cfg.GCThresholdWords
	m.gcOnOverflow = boolDefault(cfg.GCOnOverflow, true)
	m.trailHighWater = cfg.TrailBase + cfg.TrailSize - cfg.TrailSize/4
	m.heapWatermark = cfg.HeapWatermarkWords
	if m.heapWatermark == 0 {
		m.heapWatermark = cfg.GlobalSize / 16
		if m.heapWatermark < 64 {
			m.heapWatermark = 64
		}
	}
	m.fetch = m.fetchCode
	m.preds = maps.Clone(im.Entries)
	m.phys = mem.New(mem.BoardWords)
	// The two address spaces draw physical frames from one pool.
	frames := mmu.NewFrameAlloc(m.phys)
	m.cmmu.Init(m.phys, frames)
	m.dmmu.Init(m.phys, frames)
	m.dcache.Init(&m.dmmu, boolDefault(cfg.SplitDataCache, true))
	m.icache.Init(&m.cmmu)
	m.installZones()
	if err := checkCode(im.Code, 0, 0); err != nil {
		return nil, err
	}
	// Load the image through the code MMU (untimed).
	for a, w := range im.Code {
		if _, err := m.cmmu.Write(uint32(a), w); err != nil {
			return nil, fmt.Errorf("machine: loading code: %w", err)
		}
	}
	m.codeTop = uint32(len(im.Code))
	m.shadowWrite(0, im.Code)
	m.growPredecode(m.codeTop)
	m.hook = cfg.Hook
	if m.hook != nil {
		// Hand address-to-predicate resolution to hooks that want it,
		// then route the memory system's callbacks into the stream.
		// Installed after the boot code load so its untimed page
		// allocations stay out of the trace.
		if b, ok := m.hook.(trace.PredBinder); ok {
			preds := make([]trace.Pred, 0, len(im.Entries))
			for pi, a := range im.Entries {
				preds = append(preds, trace.Pred{Start: a, Name: pi.String()})
			}
			b.BindPreds(trace.NewPredTable(preds))
		}
		m.installTraceHooks()
	}
	return m, nil
}

func (m *Machine) installZones() {
	c := m.cfg
	refPtr := mmu.TypeMask(word.TRef, word.TDataPtr)
	m.dmmu.SetZone(word.ZGlobal, mmu.Zone{
		Start: c.GlobalBase, End: c.GlobalBase + c.GlobalSize,
		AllowedTypes: mmu.TypeMask(word.TRef, word.TDataPtr, word.TList, word.TStruct),
	})
	m.dmmu.SetZone(word.ZLocal, mmu.Zone{
		Start: c.LocalBase, End: c.LocalBase + c.LocalSize,
		AllowedTypes: refPtr | mmu.TypeMask(word.TEnvPtr),
	})
	m.dmmu.SetZone(word.ZChoice, mmu.Zone{
		Start: c.ChoiceBase, End: c.ChoiceBase + c.ChoiceSize,
		AllowedTypes: mmu.TypeMask(word.TDataPtr, word.TChpPtr),
	})
	m.dmmu.SetZone(word.ZTrail, mmu.Zone{
		Start: c.TrailBase, End: c.TrailBase + c.TrailSize,
		AllowedTypes: mmu.TypeMask(word.TDataPtr, word.TTrailPtr),
	})
	m.cmmu.SetZone(word.ZCode, mmu.Zone{
		Start: 0, End: 1 << 28,
		AllowedTypes: mmu.TypeMask(word.TCodePtr),
	})
	m.setProbe()
}

// Syms exposes the symbol table (for output formatting in tools).
func (m *Machine) Syms() *term.SymTab { return m.syms }

// Stats returns the counters accumulated so far.
func (m *Machine) Stats() Stats { return m.stats }

// ---- data-space access paths ----

// window is one row of a probe table, indexed by the type and zone
// byte of an address word (bits 55..48: type in the low nibble, zone
// in the high one). It folds the zone check and the data-cache tag
// match into one lookup, as KCM runs its zone-check comparators in
// parallel with the logical cache access (section 3.2.3): address a
// passes the zone check exactly when a-lo < span (mmu.Window), and
// then hits when the line at Base|a&Mask carries tag Key|a
// (cache.Slot).
type window struct {
	lo, span uint32
	cache.Slot
}

// setProbe derives both probe tables from the data MMU's zone
// descriptors and the data cache's placement. installZones sets those
// descriptors from Config once, in New, and nothing changes them
// afterwards, so the tables depend on Config alone.
func (m *Machine) setProbe() {
	for i := range m.rwin {
		t, z := word.Type(i&0xF), word.Zone(i>>4)
		slot := m.dcache.Slot(z)
		lo, span := m.dmmu.Window(z, t, false)
		m.rwin[i] = window{lo, span, slot}
		lo, span = m.dmmu.Window(z, t, true)
		m.wwin[i] = window{lo, span, slot}
	}
}

// readData reads through zone check and data cache using a tagged
// address word. A legal address that hits costs one table load, one
// window compare and one tag compare, and counts what Check + Read
// would: one zone check, one cache read, zero cycles. A tag miss
// counts the check and takes the full Read (fill, write-back, miss
// event); only a failed window runs the full Check, which counts,
// classifies and reports the trap.
func (m *Machine) readData(addr word.Word) (word.Word, bool) {
	e := &m.rwin[uint8(addr>>48)]
	a := addr.Value()
	if a-e.lo >= e.span {
		m.err = classifyTrap(m.dmmu.Check(addr, false))
		return 0, false
	}
	m.dmmu.NoteCheck()
	if w, ok := m.dcache.ReadHit(e.Base|a&e.Mask, e.Key|uint64(a)); ok {
		return w, true
	}
	w, cost, err := m.dcache.Read(a, addr.Zone())
	m.stats.Cycles += uint64(cost)
	if err != nil {
		m.err = classifyTrap(err)
		return 0, false
	}
	return w, true
}

// writeData writes through zone check and data cache; the probe
// mirrors readData's against the write table, which also closes
// write-protected zones.
func (m *Machine) writeData(addr word.Word, w word.Word) bool {
	e := &m.wwin[uint8(addr>>48)]
	a := addr.Value()
	if a-e.lo >= e.span {
		m.err = classifyTrap(m.dmmu.Check(addr, true))
		return false
	}
	m.dmmu.NoteCheck()
	if m.dcache.WriteHit(e.Base|a&e.Mask, e.Key|uint64(a), w) {
		return true
	}
	cost, err := m.dcache.Write(a, addr.Zone(), w)
	m.stats.Cycles += uint64(cost)
	if err != nil {
		m.err = classifyTrap(err)
		return false
	}
	return true
}

// rd / wr are internal helpers addressing a zone directly. Each
// inlines to one call of the probe, so an access adds no call level;
// rd's named results keep it inside the inliner's budget, and
// scripts/verify.sh fails if either stops inlining.
func (m *Machine) rd(z word.Zone, a uint32) (w word.Word, ok bool) {
	w, ok = m.readData(word.DataPtr(z, a))
	return
}

func (m *Machine) wr(z word.Zone, a uint32, w word.Word) bool {
	return m.writeData(word.DataPtr(z, a), w)
}

// fetchCode reads a code word through the instruction cache.
func (m *Machine) fetchCode(a uint32) word.Word {
	w, cost, err := m.icache.Read(a)
	m.stats.Cycles += uint64(cost)
	if err != nil && m.err == nil {
		m.err = classifyTrap(err)
	}
	return w
}

func (m *Machine) errf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("machine: P=%d: %s", m.p, fmt.Sprintf(format, args...))
	}
}

// errw records a machine fault wrapping one of the exported taxonomy
// sentinels (errors.go), so hosts can dispatch with errors.Is.
func (m *Machine) errw(sentinel error, format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("machine: P=%d: %w: %s", m.p, sentinel, fmt.Sprintf(format, args...))
	}
}

// ResetStats clears every run-time counter while keeping the memory
// system warm (cache and page-table contents survive). The benchmark
// harness uses it to reproduce the paper's best-of-several-runs
// protocol: time a second execution with warm caches.
func (m *Machine) ResetStats() {
	m.stats = Stats{}
	m.dcache.ResetStats()
	m.icache.ResetStats()
	m.phys.ResetStats()
	m.dmmu.ResetStats()
	m.cmmu.ResetStats()
	m.halted = false
	m.failed = false
	if m.hook != nil {
		// Every counter the events attribute against was cleared, so
		// stateful consumers (the cycle profiler) clear with it.
		m.emit(trace.Event{Kind: trace.KReset, P: m.p})
	}
}

// Reset returns a warm machine to a fresh-query state: counters
// cleared (ResetStats semantics, so the memory system stays warm —
// cache lines, page tables and the predecoded code survive) plus any
// pending fault and GC history discarded. The engine pool calls it
// between queries; the next Begin/Run rebuilds the whole register
// state, so nothing else needs to be restored.
func (m *Machine) Reset() {
	m.ResetStats()
	m.err = nil
	m.gcStats = GCStats{}
}

// Err returns the machine's pending fault, or nil. A non-nil fault
// means the simulated state is mid-failure (stale zone registers,
// possibly a half-executed instruction); callers pooling machines
// should discard or Reset such a machine rather than reuse it as-is.
func (m *Machine) Err() error { return m.err }
