// Package snapshot defines the portable serialized form of a KCM
// machine: a versioned, checksummed binary blob carrying the complete
// simulated state — heap, stacks, trail, registers, the memory system
// (cache lines, page tables, DRAM open row) and every statistics
// counter — plus the identity (content hash) of the code image it was
// taken against. A blob restored onto a machine with the same image
// and configuration continues execution byte-identically: same
// solutions, same cycle counts, same cache statistics.
//
// What the blob deliberately does NOT carry is host-side derived
// state: predecode residency and profiler shadow stacks. Those are
// caches over the code image and are rebuilt (or lazily refilled) by
// the restoring machine; serializing them would bloat the blob and tie
// it to one host build. The split
// rule is: anything that affects a simulated counter is serialized,
// anything that only affects host wall-clock is derived.
//
// The package is dependency-light (word, cache, mmu) so both the
// machine (producer/consumer) and out-of-process tools can use it
// without importing the interpreter.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/word"
)

// Magic begins every blob; Version is the current format version.
// Decode rejects other magics as malformed and other versions with
// ErrVersion, so format evolution is explicit, never silent.
const (
	Magic   = "KCMSNAP1"
	Version = 2
)

// Typed decode failures. Decode never panics and never partially
// succeeds: a blob either round-trips into a fully validated State or
// is rejected with one of these (wrapped with detail).
var (
	ErrTruncated = errors.New("snapshot: truncated blob")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrMalformed = errors.New("snapshot: malformed blob")
)

// Counters mirrors machine.Stats field for field. The mirror exists so this
// package need not import the machine; the machine's capture code
// converts both ways and a reflection test there pins the two structs
// to the same shape, which is what makes the serializer an exhaustive
// inventory of per-query state.
type Counters struct {
	NsPerCycle   float64
	Cycles       uint64
	Instrs       uint64
	Inferences   uint64
	DerefSteps   uint64
	UnifyNodes   uint64
	TrailChecks  uint64
	TrailPushes  uint64
	ShallowTries uint64
	ShallowFails uint64
	DeepFails    uint64
	ChoicePoints uint64
	NeckUpdates  uint64
	NeckDet      uint64
	EnvAllocs    uint64
	Builtins     uint64
	CPWords      uint64
}

// GCCounters mirrors machine.GCStats.
type GCCounters struct {
	Collections uint64
	LiveWords   uint64
	FreedWords  uint64
	TrailDrops  uint64
	Cycles      uint64
}

// State is the complete decoded form of a snapshot blob.
type State struct {
	// Compatibility gates: a restore target must present the same
	// configuration fingerprint and the same code image content hash
	// over the same CodeTop. The code itself is NOT serialized — the
	// receiving side reconstructs it (same program compile, same
	// tenant delta) and the hash proves equivalence.
	ConfigHash uint64
	ImageHash  uint64
	CodeTop    uint32

	// Dynamic-database delta mark: the tenant database version and
	// code frontier this snapshot's image was materialized from. Zero
	// for purely static images. The engine layer uses it to refuse
	// resuming against a tenant that has been rolled back or mutated
	// since (the blob would otherwise run stale code that hashes
	// clean only by accident).
	DeltaVersion uint64
	DeltaTop     uint32

	// Machine registers.
	Regs         []word.Word
	P            uint32
	CP           uint32
	E, B, B0     uint32
	H, HB        uint32
	TR           uint32
	S            uint32
	Mode, SF, CF bool
	ShadowH      uint32
	ShadowTR     uint32
	ShadowNext   int32
	BLTOP        uint32
	Halted       bool
	Failed       bool
	GCRetryAddr  uint32
	GCRetryInstr uint64

	// Live data-memory ranges. Bases are implied by the (fingerprinted)
	// configuration; tops are explicit. Heap covers [GlobalBase, H),
	// Local [LocalBase, LocalTop), Choice [ChoiceBase, ChoiceTop),
	// Trail [TrailBase, TR).
	LocalTop  uint32
	ChoiceTop uint32
	Heap      []word.Word
	Local     []word.Word
	Choice    []word.Word
	Trail     []word.Word

	// Simulated memory system. Residency and dirtiness decide every
	// subsequent hit/miss/writeback, page tables decide physical
	// addresses and so DRAM row behaviour, the frame frontier decides
	// future demand allocations, and the open row decides the very
	// next access's page-mode timing.
	DataLines []cache.LineState
	CodeLines []cache.LineState
	DataPages []mmu.PageEntry
	CodePages []mmu.PageEntry
	FrameNext uint32
	OpenRow   uint32
	OpenRowOK bool

	// Statistics, all of them: the counters are observable output of
	// the simulation, so a continuation must resume from the exact
	// values the suspended run had reached.
	Counters Counters
	GC       GCCounters
	DCache   cache.Stats
	CCache   cache.Stats
	DataMMU  mmu.Stats
	CodeMMU  mmu.Stats
	MemReads uint64
	MemWrite uint64
	MemPageH uint64

	// Session block, used by the engine layer to park a suspended
	// enumeration; zero for a bare machine capture. Goal is the query
	// text (recompiled on resume; the image hash gate proves the
	// recompile reproduced the code the blob ran against).
	Goal          string
	SessState     uint8
	SessDelivered uint64
	SessBudget    uint64
}

// HashWords is the content hash used for image identity: FNV-1a over
// the little-endian bytes of each word. Deterministic across processes
// and builds.
func HashWords(ws []word.Word) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		v := uint64(w)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// maxSection caps every length-prefixed section against absurd counts
// before allocation: no legal blob exceeds it (the largest sections
// are the live stacks, bounded by zone sizes far below this), and a
// fuzzed length field must not drive a huge allocation.
const maxSection = 64 << 20

// Encode serializes the state into a self-describing blob:
//
//	magic[8] | version u32 | payloadLen u64 | crc64(payload) u64 | payload
//
// The checksum covers the payload only; magic and version are
// validated structurally.
func Encode(s *State) []byte {
	var w writer
	w.words(s.Regs)
	w.u32(s.P)
	w.u32(s.CP)
	w.u32(s.E)
	w.u32(s.B)
	w.u32(s.B0)
	w.u32(s.H)
	w.u32(s.HB)
	w.u32(s.TR)
	w.u32(s.S)
	w.bool(s.Mode)
	w.bool(s.SF)
	w.bool(s.CF)
	w.u32(s.ShadowH)
	w.u32(s.ShadowTR)
	w.u32(uint32(s.ShadowNext))
	w.u32(s.BLTOP)
	w.bool(s.Halted)
	w.bool(s.Failed)
	w.u32(s.GCRetryAddr)
	w.u64(s.GCRetryInstr)

	w.u64(s.ConfigHash)
	w.u64(s.ImageHash)
	w.u32(s.CodeTop)
	w.u64(s.DeltaVersion)
	w.u32(s.DeltaTop)

	w.u32(s.LocalTop)
	w.u32(s.ChoiceTop)
	w.words(s.Heap)
	w.words(s.Local)
	w.words(s.Choice)
	w.words(s.Trail)

	w.dataLines(s.DataLines)
	w.codeLines(s.CodeLines)
	w.pages(s.DataPages)
	w.pages(s.CodePages)
	w.u32(s.FrameNext)
	w.u32(s.OpenRow)
	w.bool(s.OpenRowOK)

	w.counters(&s.Counters)
	w.gc(&s.GC)
	w.cacheStats(&s.DCache)
	w.cacheStats(&s.CCache)
	w.mmuStats(&s.DataMMU)
	w.mmuStats(&s.CodeMMU)
	w.u64(s.MemReads)
	w.u64(s.MemWrite)
	w.u64(s.MemPageH)

	w.str(s.Goal)
	w.u8(s.SessState)
	w.u64(s.SessDelivered)
	w.u64(s.SessBudget)

	payload := w.buf
	out := make([]byte, 0, len(Magic)+4+8+8+len(payload))
	out = append(out, Magic...)
	var hdr writer
	hdr.u32(Version)
	hdr.u64(uint64(len(payload)))
	hdr.u64(crc64.Checksum(payload, crcTable))
	out = append(out, hdr.buf...)
	out = append(out, payload...)
	return out
}

// Decode parses and validates a blob. Structural validation (magic,
// version, length, checksum, per-section bounds) all happens here;
// semantic validation against a concrete machine configuration is the
// restore side's job. On any failure the returned error wraps one of
// the typed sentinels above.
func Decode(b []byte) (*State, error) {
	if len(b) < len(Magic)+4+8+8 {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d for the header", ErrTruncated, len(b), len(Magic)+4+8+8)
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, b[:len(Magic)])
	}
	hdr := reader{buf: b[len(Magic):]}
	ver := hdr.u32()
	plen := hdr.u64()
	sum := hdr.u64()
	if ver != Version {
		return nil, fmt.Errorf("%w: blob version %d, this build reads %d", ErrVersion, ver, Version)
	}
	payload := hdr.buf[hdr.off:]
	if uint64(len(payload)) < plen {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrTruncated, len(payload), plen)
	}
	if uint64(len(payload)) > plen {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrMalformed, uint64(len(payload))-plen)
	}
	if crc64.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: crc64 over %d payload bytes", ErrChecksum, len(payload))
	}

	r := reader{buf: payload}
	s := &State{}
	s.Regs = r.words()
	s.P = r.u32()
	s.CP = r.u32()
	s.E = r.u32()
	s.B = r.u32()
	s.B0 = r.u32()
	s.H = r.u32()
	s.HB = r.u32()
	s.TR = r.u32()
	s.S = r.u32()
	s.Mode = r.bool()
	s.SF = r.bool()
	s.CF = r.bool()
	s.ShadowH = r.u32()
	s.ShadowTR = r.u32()
	s.ShadowNext = int32(r.u32())
	s.BLTOP = r.u32()
	s.Halted = r.bool()
	s.Failed = r.bool()
	s.GCRetryAddr = r.u32()
	s.GCRetryInstr = r.u64()

	s.ConfigHash = r.u64()
	s.ImageHash = r.u64()
	s.CodeTop = r.u32()
	s.DeltaVersion = r.u64()
	s.DeltaTop = r.u32()

	s.LocalTop = r.u32()
	s.ChoiceTop = r.u32()
	s.Heap = r.words()
	s.Local = r.words()
	s.Choice = r.words()
	s.Trail = r.words()

	s.DataLines = r.dataLines()
	s.CodeLines = r.codeLines()
	s.DataPages = r.pages()
	s.CodePages = r.pages()
	s.FrameNext = r.u32()
	s.OpenRow = r.u32()
	s.OpenRowOK = r.bool()

	r.counters(&s.Counters)
	r.gc(&s.GC)
	r.cacheStats(&s.DCache)
	r.cacheStats(&s.CCache)
	r.mmuStats(&s.DataMMU)
	r.mmuStats(&s.CodeMMU)
	s.MemReads = r.u64()
	s.MemWrite = r.u64()
	s.MemPageH = r.u64()

	s.Goal = r.str()
	s.SessState = r.u8()
	s.SessDelivered = r.u64()
	s.SessBudget = r.u64()

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("%w: %d unread payload bytes", ErrMalformed, len(r.buf)-r.off)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate enforces the structural invariants any real capture
// satisfies, so the restore side can rely on them.
func (s *State) validate() error {
	if len(s.DataLines) > cache.DataWords {
		return fmt.Errorf("%w: %d data-cache lines, capacity %d", ErrMalformed, len(s.DataLines), cache.DataWords)
	}
	if len(s.CodeLines) > cache.CodeWords {
		return fmt.Errorf("%w: %d code-cache lines, capacity %d", ErrMalformed, len(s.CodeLines), cache.CodeWords)
	}
	for _, p := range s.DataPages {
		if p.VPage >= mmu.NumPages {
			return fmt.Errorf("%w: data page table maps virtual page %d beyond %d", ErrMalformed, p.VPage, mmu.NumPages)
		}
	}
	for _, p := range s.CodePages {
		if p.VPage >= mmu.NumPages {
			return fmt.Errorf("%w: code page table maps virtual page %d beyond %d", ErrMalformed, p.VPage, mmu.NumPages)
		}
	}
	for _, p := range append(append([]mmu.PageEntry{}, s.DataPages...), s.CodePages...) {
		if p.Frame >= s.FrameNext {
			return fmt.Errorf("%w: page table references frame %d at or above the allocation frontier %d", ErrMalformed, p.Frame, s.FrameNext)
		}
	}
	if s.SessState > 2 {
		return fmt.Errorf("%w: session state %d", ErrMalformed, s.SessState)
	}
	return nil
}

// --- little-endian encoding primitives ---

type writer struct{ buf []byte }

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *writer) u64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) words(ws []word.Word) {
	w.u32(uint32(len(ws)))
	for _, x := range ws {
		w.u64(uint64(x))
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) dataLines(ls []cache.LineState) {
	w.u32(uint32(len(ls)))
	for _, l := range ls {
		w.u32(l.VA)
		w.u8(uint8(l.Zone))
		w.u64(uint64(l.Data))
		w.bool(l.Dirty)
	}
}

func (w *writer) codeLines(ls []cache.LineState) {
	w.u32(uint32(len(ls)))
	for _, l := range ls {
		w.u32(l.VA)
		w.u64(uint64(l.Data))
	}
}

func (w *writer) pages(ps []mmu.PageEntry) {
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		w.u32(p.VPage)
		w.u32(p.Frame)
	}
}

func (w *writer) counters(c *Counters) {
	w.f64(c.NsPerCycle)
	for _, v := range []uint64{
		c.Cycles, c.Instrs, c.Inferences, c.DerefSteps, c.UnifyNodes,
		c.TrailChecks, c.TrailPushes, c.ShallowTries, c.ShallowFails,
		c.DeepFails, c.ChoicePoints, c.NeckUpdates, c.NeckDet,
		c.EnvAllocs, c.Builtins, c.CPWords,
	} {
		w.u64(v)
	}
}

func (w *writer) gc(g *GCCounters) {
	w.u64(g.Collections)
	w.u64(g.LiveWords)
	w.u64(g.FreedWords)
	w.u64(g.TrailDrops)
	w.u64(g.Cycles)
}

func (w *writer) cacheStats(s *cache.Stats) {
	w.u64(s.Reads)
	w.u64(s.Writes)
	w.u64(s.ReadMiss)
	w.u64(s.WriteMiss)
	w.u64(s.WriteBacks)
}

func (w *writer) mmuStats(s *mmu.Stats) {
	w.u64(s.Translations)
	w.u64(s.PageFaults)
	w.u64(s.ZoneChecks)
	w.u64(s.ZoneTraps)
}

// --- decoding primitives; first failure latches err and every later
// read returns zero, so call sites stay linear ---

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf))
		return true
	}
	return false
}

func (r *reader) u8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: boolean byte not 0/1 at offset %d", ErrMalformed, r.off-1)
		}
		return false
	}
}

func (r *reader) u32() uint32 {
	if r.fail(4) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) u64() uint64 {
	if r.fail(8) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a section length and rejects values the remaining bytes
// cannot possibly satisfy (elemSize is the minimum encoded size of one
// element), so a corrupted length cannot drive a giant allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > maxSection || n*elemSize > len(r.buf)-r.off {
		r.err = fmt.Errorf("%w: section count %d exceeds remaining %d bytes", ErrMalformed, n, len(r.buf)-r.off)
		return 0
	}
	return n
}

func (r *reader) words() []word.Word {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	ws := make([]word.Word, n)
	for i := range ws {
		ws[i] = word.Word(r.u64())
	}
	return ws
}

func (r *reader) str() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	if r.fail(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) dataLines() []cache.LineState {
	n := r.count(4 + 1 + 8 + 1)
	if n == 0 {
		return nil
	}
	ls := make([]cache.LineState, n)
	for i := range ls {
		ls[i].VA = r.u32()
		ls[i].Zone = word.Zone(r.u8())
		ls[i].Data = word.Word(r.u64())
		ls[i].Dirty = r.bool()
	}
	return ls
}

func (r *reader) codeLines() []cache.LineState {
	n := r.count(4 + 8)
	if n == 0 {
		return nil
	}
	ls := make([]cache.LineState, n)
	for i := range ls {
		ls[i].VA = r.u32()
		ls[i].Data = word.Word(r.u64())
	}
	return ls
}

func (r *reader) pages() []mmu.PageEntry {
	n := r.count(4 + 4)
	if n == 0 {
		return nil
	}
	ps := make([]mmu.PageEntry, n)
	for i := range ps {
		ps[i].VPage = r.u32()
		ps[i].Frame = r.u32()
	}
	return ps
}

func (r *reader) counters(c *Counters) {
	c.NsPerCycle = r.f64()
	for _, p := range []*uint64{
		&c.Cycles, &c.Instrs, &c.Inferences, &c.DerefSteps, &c.UnifyNodes,
		&c.TrailChecks, &c.TrailPushes, &c.ShallowTries, &c.ShallowFails,
		&c.DeepFails, &c.ChoicePoints, &c.NeckUpdates, &c.NeckDet,
		&c.EnvAllocs, &c.Builtins, &c.CPWords,
	} {
		*p = r.u64()
	}
}

func (r *reader) gc(g *GCCounters) {
	g.Collections = r.u64()
	g.LiveWords = r.u64()
	g.FreedWords = r.u64()
	g.TrailDrops = r.u64()
	g.Cycles = r.u64()
}

func (r *reader) cacheStats(s *cache.Stats) {
	s.Reads = r.u64()
	s.Writes = r.u64()
	s.ReadMiss = r.u64()
	s.WriteMiss = r.u64()
	s.WriteBacks = r.u64()
}

func (r *reader) mmuStats(s *mmu.Stats) {
	s.Translations = r.u64()
	s.PageFaults = r.u64()
	s.ZoneChecks = r.u64()
	s.ZoneTraps = r.u64()
}
