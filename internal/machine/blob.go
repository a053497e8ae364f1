// The parked-session blob: the versioned, checksummed serialized form
// of a State, which Capture fills and Restore consumes (snapshot.go
// says what a State holds and what it leaves out: host-side derived
// state, anything that only affects host wall-clock). The bytes are a
// stable interface: blobs an older daemon parked must still decode, so
// field order, the retired goal-text slot and the session block never
// move without a version bump.

package machine

import (
	"errors"
	"fmt"
	"hash/crc64"
	"math"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/word"
)

// snapMagic begins every blob; snapVersion is the current format
// version. DecodeState rejects other magics as malformed and other
// versions with ErrVersion, so format evolution is explicit, never
// silent.
const (
	snapMagic   = "KCMSNAP1"
	snapVersion = 2
)

// Typed decode failures. DecodeState never panics and never partially
// succeeds: a blob either round-trips into a fully validated State or
// is rejected with one of these (wrapped with detail), or with
// ErrBadSnapshot when its session phase disagrees with its machine
// state.
var (
	ErrTruncated = errors.New("snapshot: truncated blob")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrMalformed = errors.New("snapshot: malformed blob")
)

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
	Stats    Stats
	GC       GCStats
	DCache   cache.Stats
	CCache   cache.Stats
	DataMMU  mmu.Stats
	CodeMMU  mmu.Stats
	MemReads uint64
	MemWrite uint64
	MemPageH uint64

	// Session block. SessState is the enumeration phase, a function of
	// Halted and Failed that Capture writes and DecodeState checks (see
	// sessPhase). The engine fills the solutions delivered and the step
	// budget when it parks a session.
	SessState     uint8
	SessDelivered uint64
	SessBudget    uint64
}

// sessPhase is the session phase of a machine with the given flags: 2
// when it halted with a solution out, so its next RunFor backtracks for
// the one after; 1 otherwise (fresh, budget- or ctx-suspended, or
// exhausted). No capture writes 0.
func sessPhase(halted, failed bool) uint8 {
	if halted && !failed {
		return 2
	}
	return 1
}

var snapCRC = crc64.MakeTable(crc64.ECMA)

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
func (s *State) Encode() []byte {
	var w blobWriter
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

	w.stats(&s.Stats)
	w.gc(&s.GC)
	w.cacheStats(&s.DCache)
	w.cacheStats(&s.CCache)
	w.mmuStats(&s.DataMMU)
	w.mmuStats(&s.CodeMMU)
	w.u64(s.MemReads)
	w.u64(s.MemWrite)
	w.u64(s.MemPageH)

	w.u32(0) // a retired goal-text slot: an empty length-prefixed string
	w.u8(s.SessState)
	w.u64(s.SessDelivered)
	w.u64(s.SessBudget)

	payload := w.buf
	out := make([]byte, 0, len(snapMagic)+4+8+8+len(payload))
	out = append(out, snapMagic...)
	var hdr blobWriter
	hdr.u32(snapVersion)
	hdr.u64(uint64(len(payload)))
	hdr.u64(crc64.Checksum(payload, snapCRC))
	out = append(out, hdr.buf...)
	out = append(out, payload...)
	return out
}

// DecodeState parses and validates a blob. Structural validation
// (magic, version, length, checksum, per-section bounds, the session
// phase against the machine flags) all happens here; semantic
// validation against a concrete machine configuration is Restore's
// job. On any failure the returned error wraps one of the typed
// sentinels above or ErrBadSnapshot.
func DecodeState(b []byte) (*State, error) {
	if len(b) < len(snapMagic)+4+8+8 {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d for the header", ErrTruncated, len(b), len(snapMagic)+4+8+8)
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, b[:len(snapMagic)])
	}
	hdr := blobReader{buf: b[len(snapMagic):]}
	ver := hdr.u32()
	plen := hdr.u64()
	sum := hdr.u64()
	if ver != snapVersion {
		return nil, fmt.Errorf("%w: blob version %d, this build reads %d", ErrVersion, ver, snapVersion)
	}
	payload := hdr.buf[hdr.off:]
	if uint64(len(payload)) < plen {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrTruncated, len(payload), plen)
	}
	if uint64(len(payload)) > plen {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrMalformed, uint64(len(payload))-plen)
	}
	if crc64.Checksum(payload, snapCRC) != sum {
		return nil, fmt.Errorf("%w: crc64 over %d payload bytes", ErrChecksum, len(payload))
	}

	r := blobReader{buf: payload}
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

	r.stats(&s.Stats)
	r.gc(&s.GC)
	r.cacheStats(&s.DCache)
	r.cacheStats(&s.CCache)
	r.mmuStats(&s.DataMMU)
	r.mmuStats(&s.CodeMMU)
	s.MemReads = r.u64()
	s.MemWrite = r.u64()
	s.MemPageH = r.u64()

	r.str() // the retired goal-text slot; no blob ever filled it
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
// satisfies, so the restore side can rely on them. A session phase
// that disagrees with the machine's halted/failed flags, or is missing
// (0), is inconsistent state rather than a malformed encoding.
func (s *State) validate() error {
	if len(s.DataLines) > cache.DataWords {
		return fmt.Errorf("%w: %d data-cache lines, capacity %d", ErrMalformed, len(s.DataLines), cache.DataWords)
	}
	if len(s.CodeLines) > cache.CodeWords {
		return fmt.Errorf("%w: %d code-cache lines, capacity %d", ErrMalformed, len(s.CodeLines), cache.CodeWords)
	}
	for _, table := range [][]mmu.PageEntry{s.DataPages, s.CodePages} {
		for _, p := range table {
			if p.VPage >= mmu.NumPages {
				return fmt.Errorf("%w: page table maps virtual page %d beyond %d", ErrMalformed, p.VPage, mmu.NumPages)
			}
			if p.Frame >= s.FrameNext {
				return fmt.Errorf("%w: page table references frame %d at or above the allocation frontier %d", ErrMalformed, p.Frame, s.FrameNext)
			}
		}
	}
	if s.SessState > 2 {
		return fmt.Errorf("%w: session state %d", ErrMalformed, s.SessState)
	}
	if want := sessPhase(s.Halted, s.Failed); s.SessState != want {
		return fmt.Errorf("%w: session phase %d, but a machine with halted=%v failed=%v is in phase %d",
			ErrBadSnapshot, s.SessState, s.Halted, s.Failed, want)
	}
	return nil
}

// --- little-endian encoding primitives ---

type blobWriter struct{ buf []byte }

func (w *blobWriter) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *blobWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *blobWriter) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *blobWriter) u64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *blobWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *blobWriter) words(ws []word.Word) {
	w.u32(uint32(len(ws)))
	for _, x := range ws {
		w.u64(uint64(x))
	}
}

func (w *blobWriter) dataLines(ls []cache.LineState) {
	w.u32(uint32(len(ls)))
	for _, l := range ls {
		w.u32(l.VA)
		w.u8(uint8(l.Zone))
		w.u64(uint64(l.Data))
		w.bool(l.Dirty)
	}
}

func (w *blobWriter) codeLines(ls []cache.LineState) {
	w.u32(uint32(len(ls)))
	for _, l := range ls {
		w.u32(l.VA)
		w.u64(uint64(l.Data))
	}
}

func (w *blobWriter) pages(ps []mmu.PageEntry) {
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		w.u32(p.VPage)
		w.u32(p.Frame)
	}
}

func (w *blobWriter) stats(c *Stats) {
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

func (w *blobWriter) gc(g *GCStats) {
	w.u64(g.Collections)
	w.u64(g.LiveWords)
	w.u64(g.FreedWords)
	w.u64(g.TrailDrops)
	w.u64(g.Cycles)
}

func (w *blobWriter) cacheStats(s *cache.Stats) {
	w.u64(s.Reads)
	w.u64(s.Writes)
	w.u64(s.ReadMiss)
	w.u64(s.WriteMiss)
	w.u64(s.WriteBacks)
}

func (w *blobWriter) mmuStats(s *mmu.Stats) {
	w.u64(s.Translations)
	w.u64(s.PageFaults)
	w.u64(s.ZoneChecks)
	w.u64(s.ZoneTraps)
}

// --- decoding primitives; first failure latches err and every later
// read returns zero, so call sites stay linear ---

type blobReader struct {
	buf []byte
	off int
	err error
}

func (r *blobReader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf))
		return true
	}
	return false
}

func (r *blobReader) u8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *blobReader) bool() bool {
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

func (r *blobReader) u32() uint32 {
	if r.fail(4) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *blobReader) u64() uint64 {
	if r.fail(8) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *blobReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a section length and rejects values the remaining bytes
// cannot possibly satisfy (elemSize is the minimum encoded size of one
// element), so a corrupted length cannot drive a giant allocation.
func (r *blobReader) count(elemSize int) int {
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

func (r *blobReader) words() []word.Word {
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

func (r *blobReader) str() string {
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

func (r *blobReader) dataLines() []cache.LineState {
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

func (r *blobReader) codeLines() []cache.LineState {
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

func (r *blobReader) pages() []mmu.PageEntry {
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

func (r *blobReader) stats(c *Stats) {
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

func (r *blobReader) gc(g *GCStats) {
	g.Collections = r.u64()
	g.LiveWords = r.u64()
	g.FreedWords = r.u64()
	g.TrailDrops = r.u64()
	g.Cycles = r.u64()
}

func (r *blobReader) cacheStats(s *cache.Stats) {
	s.Reads = r.u64()
	s.Writes = r.u64()
	s.ReadMiss = r.u64()
	s.WriteMiss = r.u64()
	s.WriteBacks = r.u64()
}

func (r *blobReader) mmuStats(s *mmu.Stats) {
	s.Translations = r.u64()
	s.PageFaults = r.u64()
	s.ZoneChecks = r.u64()
	s.ZoneTraps = r.u64()
}
