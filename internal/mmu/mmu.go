// Package mmu implements KCM's memory management: the RAM-resident
// page table (no TLB needed — a plain 32K x 16 RAM holds one entry
// per virtual page, affordable because the machine is single-task)
// and the zone-check unit that verifies virtual addresses against
// per-zone bounds and allowed data types before they reach the cache.
package mmu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/word"
)

// Page geometry: bits 27..14 of an address select the virtual page,
// bits 13..0 the offset, i.e. 16K-word pages and 16K virtual pages
// per address space.
const (
	PageBits  = 14
	PageWords = 1 << PageBits
	NumPages  = 1 << PageBits // 28-bit space / 14-bit offset
	// addrMask keeps the 28 implemented address bits.
	addrMask = 1<<28 - 1
)

// TrapKind classifies a memory-management fault so the machine can
// map it onto its exported error taxonomy without parsing messages.
type TrapKind int

const (
	TrapOther             TrapKind = iota
	TrapUnimplementedBits          // address uses bits above the 28 implemented
	TrapUnmappedZone               // zone descriptor not installed
	TrapBadType                    // data type not allowed as address into the zone
	TrapBounds                     // address outside the zone limits (stack overflow)
	TrapWriteProtect               // write to a protected zone
	TrapPageRange                  // virtual page out of range
	TrapOutOfMemory                // no physical frame left
)

// Trap is a memory-management fault: an access outside the
// implemented address range, a zone violation, or a type not allowed
// as an address into the zone.
type Trap struct {
	Addr word.Word
	Kind TrapKind
	Why  string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("mmu trap: %v: %s", t.Addr, t.Why)
}

// trap routes a fault past the observer before returning it.
func (u *MMU) trap(t *Trap) error {
	if u.OnTrap != nil {
		u.OnTrap(t)
	}
	return t
}

// Zone describes one virtual-memory zone: the address window it
// spans, the set of data types allowed to point into it, and write
// protection. Limits may be changed dynamically (the run-time system
// moves them when stacks are resized).
type Zone struct {
	Start, End   uint32 // word addresses, [Start, End)
	AllowedTypes uint16 // bitmask over word.Type
	WriteProtect bool
}

// Allows reports whether a data type may address this zone.
func (z Zone) Allows(t word.Type) bool { return z.AllowedTypes&(1<<t) != 0 }

// TypeMask builds an allowed-type bitmask.
func TypeMask(ts ...word.Type) uint16 {
	var m uint16
	for _, t := range ts {
		m |= 1 << t
	}
	return m
}

// FrameAlloc hands out physical page frames. The code-space and
// data-space MMUs share one allocator so a demand-paged frame is never
// given to both.
type FrameAlloc struct {
	next uint32
	max  uint32
}

// NewFrameAlloc creates an allocator over a memory of the given size.
func NewFrameAlloc(m *mem.Memory) *FrameAlloc {
	return &FrameAlloc{max: m.Size() / PageWords}
}

// Alloc returns the next free frame.
func (a *FrameAlloc) Alloc() (uint32, bool) {
	if a.next >= a.max {
		return 0, false
	}
	f := a.next
	a.next++
	return f, true
}

// Next returns the next frame the allocator would hand out.
func (a *FrameAlloc) Next() uint32 { return a.next }

// Max returns the number of frames the allocator manages.
func (a *FrameAlloc) Max() uint32 { return a.max }

// SetNext forces the allocation frontier (snapshot restore: the
// restored page tables reference frames below the frontier recorded
// when the snapshot was taken).
func (a *FrameAlloc) SetNext(n uint32) { a.next = n }

// MMU is the address-translation and protection unit for one address
// space (KCM has two: code and data, each with its own page table
// half, sharing the physical frame pool).
type MMU struct {
	mem    *mem.Memory
	table  [NumPages]int32 // -1 = unmapped, else physical frame
	frames *FrameAlloc
	zones  [16]Zone
	stats  Stats

	// OnTrap, when non-nil, observes every trap after the statistics
	// are counted; OnPageFault observes every demand-allocated page.
	// Observation only: neither may touch the MMU.
	OnTrap      func(*Trap)
	OnPageFault func(va uint32)
}

// Stats counts translation activity.
type Stats struct {
	Translations uint64
	PageFaults   uint64 // demand-allocated pages (served by the host)
	ZoneChecks   uint64
	ZoneTraps    uint64
}

// unmappedTable is an all-unmapped page table, the copy source for
// wholesale table resets (New, ImportTable).
var unmappedTable = func() (t [NumPages]int32) {
	for i := range t {
		t[i] = -1
	}
	return
}()

// Init readies an MMU held by value: backed by physical memory,
// drawing frames from the shared allocator (nil creates a private
// one), with every page unmapped.
func (u *MMU) Init(m *mem.Memory, frames *FrameAlloc) {
	if frames == nil {
		frames = NewFrameAlloc(m)
	}
	u.mem, u.frames = m, frames
	copy(u.table[:], unmappedTable[:])
}

// SetZone installs the descriptor for zone z.
func (u *MMU) SetZone(z word.Zone, d Zone) { u.zones[z] = d }

// Check performs the zone check on a data word used as an address:
// the unimplemented top address bits must be zero, the type must be
// allowed in the zone, and the value must lie inside the zone's
// limits. isWrite additionally enforces write protection. This check
// happens at the logical level, before the cache, exactly because the
// MMU is not involved when writing to a logical cache (section 3.2.3).
func (u *MMU) Check(addr word.Word, isWrite bool) error {
	u.stats.ZoneChecks++
	a := addr.Value()
	if a&^uint32(addrMask) != 0 {
		u.stats.ZoneTraps++
		return u.trap(&Trap{addr, TrapUnimplementedBits, "address uses unimplemented bits"})
	}
	z := u.zones[addr.Zone()]
	if z.End == z.Start {
		u.stats.ZoneTraps++
		return u.trap(&Trap{addr, TrapUnmappedZone, "unmapped zone"})
	}
	if !z.Allows(addr.Type()) {
		u.stats.ZoneTraps++
		return u.trap(&Trap{addr, TrapBadType, fmt.Sprintf("type %v not allowed as address into zone %v", addr.Type(), addr.Zone())})
	}
	if a < z.Start || a >= z.End {
		u.stats.ZoneTraps++
		return u.trap(&Trap{addr, TrapBounds, fmt.Sprintf("address outside zone %v limits [%#x,%#x)", addr.Zone(), z.Start, z.End)})
	}
	if isWrite && z.WriteProtect {
		u.stats.ZoneTraps++
		return u.trap(&Trap{addr, TrapWriteProtect, "zone is write-protected"})
	}
	return nil
}

// Window returns the addresses a data word of type t may reach in
// zone z as one unsigned range: Check(addr, isWrite) passes for an
// address word of that type and zone exactly when
// addr.Value()-lo < span. The window is the zone's limits clamped to
// the 28 implemented address bits; span is 0, so nothing passes, when
// the zone is unmapped, does not allow t, or is written while
// write-protected. It is the zone-check comparators folded into one
// compare, for callers that precompute it per type and zone and
// count the passing check with NoteCheck.
func (u *MMU) Window(z word.Zone, t word.Type, isWrite bool) (lo, span uint32) {
	d := u.zones[z]
	end := min(d.End, addrMask+1)
	if !d.Allows(t) || isWrite && d.WriteProtect || d.Start >= end {
		return 0, 0
	}
	return d.Start, end - d.Start
}

// NoteCheck counts one zone check that passed, decided by the caller
// from a Window: the statistics effect of a passing Check.
func (u *MMU) NoteCheck() { u.stats.ZoneChecks++ }

// Translate maps a virtual word address to a physical one, demand-
// allocating a frame on first touch (the paging traffic itself is
// served by the host and not part of the benchmark timing).
func (u *MMU) Translate(va uint32) (uint32, error) {
	u.stats.Translations++
	vp := va >> PageBits
	if vp >= NumPages {
		return 0, u.trap(&Trap{word.DataPtr(word.ZNone, va), TrapPageRange, "virtual page out of range"})
	}
	f := u.table[vp]
	if f < 0 {
		nf, ok := u.frames.Alloc()
		if !ok {
			return 0, u.trap(&Trap{word.DataPtr(word.ZNone, va), TrapOutOfMemory, "out of physical memory"})
		}
		u.table[vp] = int32(nf)
		f = int32(nf)
		u.stats.PageFaults++
		if u.OnPageFault != nil {
			u.OnPageFault(va)
		}
	}
	return uint32(f)<<PageBits | va&(PageWords-1), nil
}

// Read translates and reads one word, returning the memory cost.
func (u *MMU) Read(va uint32) (word.Word, int, error) {
	pa, err := u.Translate(va)
	if err != nil {
		return 0, 0, err
	}
	w, c := u.mem.Read(pa)
	return w, c, nil
}

// Write translates and writes one word, returning the memory cost.
func (u *MMU) Write(va uint32, w word.Word) (int, error) {
	pa, err := u.Translate(va)
	if err != nil {
		return 0, err
	}
	return u.mem.Write(pa, w), nil
}

// Stats returns a copy of the counters.
func (u *MMU) Stats() Stats { return u.stats }

// Peek translates without statistics and without demand allocation;
// ok=false for an unmapped page.
func (u *MMU) Peek(va uint32) (uint32, bool) {
	vp := va >> PageBits
	if vp >= NumPages || u.table[vp] < 0 {
		return 0, false
	}
	return uint32(u.table[vp])<<PageBits | va&(PageWords-1), true
}

// MappedPages returns how many pages are currently mapped.
func (u *MMU) MappedPages() int {
	n := 0
	for _, f := range u.table {
		if f >= 0 {
			n++
		}
	}
	return n
}

// ResetStats clears the counters (the page table stays).
func (u *MMU) ResetStats() { u.stats = Stats{} }

// Frames returns the frame allocator this MMU draws from (shared with
// the other address space's MMU).
func (u *MMU) Frames() *FrameAlloc { return u.frames }

// PageEntry is one mapped page-table entry, for serialization.
type PageEntry struct {
	VPage uint32
	Frame uint32
}

// ExportTable returns the mapped entries of the page table in
// ascending virtual-page order.
func (u *MMU) ExportTable() []PageEntry {
	var es []PageEntry
	for vp, f := range u.table {
		if f >= 0 {
			es = append(es, PageEntry{VPage: uint32(vp), Frame: uint32(f)})
		}
	}
	return es
}

// ImportTable replaces the page table wholesale with the given
// entries; every page not listed becomes unmapped. Entries with an
// out-of-range virtual page are ignored (the snapshot decoder bounds-
// checks before calling, so this is belt and braces).
func (u *MMU) ImportTable(es []PageEntry) {
	// memmove from a blank table: a per-entry -1 loop is the hottest
	// single cost of a snapshot restore.
	copy(u.table[:], unmappedTable[:])
	for _, e := range es {
		if e.VPage < NumPages {
			u.table[e.VPage] = int32(e.Frame)
		}
	}
}

// SetStats replaces the counters wholesale (snapshot restore).
func (u *MMU) SetStats(s Stats) { u.stats = s }
