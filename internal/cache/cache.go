// Package cache implements KCM's logical (virtually-addressed)
// caches: the copy-back data cache, direct-mapped but split into 8
// sections of 1K words selected by the zone field of the address so
// that different stacks can never collide, and the write-through code
// cache. Both have a line size of one word and an 80 ns (single-cycle)
// hit time; a miss fills exactly one line.
package cache

import "repro/internal/word"

// Backing is the refill/writeback path behind a cache: the MMU in
// front of physical memory. Costs are returned in cycles.
type Backing interface {
	Read(va uint32) (word.Word, int, error)
	Write(va uint32, w word.Word) (int, error)
}

// Stats counts cache activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	WriteBacks uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.Reads + s.Writes - s.ReadMiss - s.WriteMiss }

// HitRatio returns the fraction of accesses served by the cache.
func (s Stats) HitRatio() float64 {
	t := s.Reads + s.Writes
	if t == 0 {
		return 1
	}
	return float64(s.Hits()) / float64(t)
}

// line is one cache line. key packs its tag: lineValid, the zone
// (data cache only) in bits 39..32 and the address in bits 31..0, so
// one 64-bit compare against tag(z, va) decides a hit; 0 is an
// invalid line.
type line struct {
	key   uint64
	dirty bool
	data  word.Word
}

const lineValid = 1 << 63

// zoneKey is the part of a line tag a zone contributes.
func zoneKey(z word.Zone) uint64 { return lineValid | uint64(z)<<32 }

// tag is the line tag of address va in zone z (ZNone for code).
func tag(z word.Zone, va uint32) uint64 { return zoneKey(z) | uint64(va) }

func (ln *line) va() uint32      { return uint32(ln.key) }
func (ln *line) zone() word.Zone { return word.Zone(ln.key >> 32) }

// Data is the KCM data cache: 8K words total. With Split enabled
// (the KCM configuration) the three zone bits select one of 8
// sections of 1K; with Split disabled it degrades to a plain 8K
// direct-mapped cache, the configuration used for the stack-collision
// study in section 3.2.4.
type Data struct {
	// lines is a fixed-size array, not a slice: the hit path indexes
	// it with a value already reduced mod DataWords, so the compiler
	// drops both the bounds check and the slice-header indirection —
	// this path runs once per simulated data access.
	lines [DataWords]line
	split bool
	stats Stats
	back  Backing

	// OnMiss, when non-nil, observes every miss (read and write) after
	// the statistics are counted. Observation only: it must not touch
	// the cache. nil costs one never-taken branch per miss.
	OnMiss func(write bool, va uint32, z word.Zone)
}

// DataWords is the data cache capacity.
const DataWords = 8 * 1024

const sectionWords = 1024

// Init readies a data cache held by value; the zero Data has no
// backing.
func (c *Data) Init(back Backing, split bool) {
	c.split, c.back = split, back
}

// Slot is where one zone's accesses live in the data cache: address
// a of the zone occupies line Base | a&Mask and matches tag Key | a.
// A caller that precomputes the Slot per zone decides a hit with one
// index and one compare (ReadHit, WriteHit), with no branch on the
// split flag.
type Slot struct {
	Base, Mask uint32
	Key        uint64
}

// Slot returns zone z's placement: with Split, the zone's 1K section
// (z&7); otherwise the whole 8K.
func (c *Data) Slot(z word.Zone) Slot {
	if c.split {
		return Slot{Base: uint32(z&7) * sectionWords, Mask: sectionWords - 1, Key: zoneKey(z)}
	}
	return Slot{Mask: DataWords - 1, Key: zoneKey(z)}
}

func (c *Data) index(va uint32, z word.Zone) uint32 {
	s := c.Slot(z)
	return s.Base | va&s.Mask
}

// ReadHit is the hit half of Read for a line index and tag key taken
// from the access zone's Slot: on a tag match it counts the read and
// returns the word at zero cost, exactly as Read would. On a miss it
// counts nothing and returns false; the caller then takes Read, which
// counts the access and fills the line.
func (c *Data) ReadHit(i uint32, key uint64) (word.Word, bool) {
	ln := &c.lines[i%DataWords]
	if ln.key != key {
		return 0, false
	}
	c.stats.Reads++
	return ln.data, true
}

// WriteHit is the hit half of Write, split as ReadHit: a tag match
// counts the write, stores and marks the line dirty at zero cost; a
// miss counts nothing and the caller takes Write.
func (c *Data) WriteHit(i uint32, key uint64, w word.Word) bool {
	ln := &c.lines[i%DataWords]
	if ln.key != key {
		return false
	}
	c.stats.Writes++
	ln.data = w
	ln.dirty = true
	return true
}

// Read returns the word at virtual address va (zone z), the cost in
// cycles beyond the single-cycle hit, and any translation error.
func (c *Data) Read(va uint32, z word.Zone) (word.Word, int, error) {
	c.stats.Reads++
	ln := &c.lines[c.index(va, z)]
	if ln.key == tag(z, va) {
		return ln.data, 0, nil
	}
	c.stats.ReadMiss++
	if c.OnMiss != nil {
		c.OnMiss(false, va, z)
	}
	cost, err := c.fill(ln, va, z)
	if err != nil {
		return 0, cost, err
	}
	return ln.data, cost, nil
}

// Write stores w at va. The cache is copy-back: data reaches memory
// only when the line is evicted.
func (c *Data) Write(va uint32, z word.Zone, w word.Word) (int, error) {
	c.stats.Writes++
	ln := &c.lines[c.index(va, z)]
	cost := 0
	if ln.key != tag(z, va) {
		c.stats.WriteMiss++
		if c.OnMiss != nil {
			c.OnMiss(true, va, z)
		}
		// Allocate on write; no fetch needed for a full-word write
		// with line size one, but a dirty victim must go to memory.
		ev, err := c.evict(ln)
		cost += ev
		if err != nil {
			return cost, err
		}
		ln.key = tag(z, va)
	}
	ln.data = w
	ln.dirty = true
	return cost, nil
}

func (c *Data) fill(ln *line, va uint32, z word.Zone) (int, error) {
	cost, err := c.evict(ln)
	if err != nil {
		return cost, err
	}
	w, rc, err := c.back.Read(va)
	cost += rc
	if err != nil {
		return cost, err
	}
	*ln = line{key: tag(z, va), data: w}
	return cost, nil
}

// WritebackCycles is the cycle cost charged for evicting a dirty
// line. The store-in design drains evictions through a write buffer
// in memory page mode, so the processor only stalls one cycle to hand
// the word over; the DRAM traffic itself is overlapped.
const WritebackCycles = 1

func (c *Data) evict(ln *line) (int, error) {
	if ln.key != 0 && ln.dirty {
		c.stats.WriteBacks++
		if _, err := c.back.Write(ln.va(), ln.data); err != nil {
			return WritebackCycles, err
		}
		ln.dirty = false
		return WritebackCycles, nil
	}
	return 0, nil
}

// Stats returns a copy of the counters.
func (c *Data) Stats() Stats { return c.stats }

// Peek returns the cached word at va without statistics or refill;
// ok=false when the line is absent (read memory instead).
func (c *Data) Peek(va uint32, z word.Zone) (word.Word, bool) {
	ln := &c.lines[c.index(va, z)]
	if ln.key == tag(z, va) {
		return ln.data, true
	}
	return 0, false
}

// Code is the 8K-word write-through instruction cache. A miss fills
// the one line it missed on; no neighbouring word is fetched ahead.
type Code struct {
	// Fixed-size array for the same bounds-check-free hit path as
	// Data.lines; Touch runs it once per fetched code word.
	lines [CodeWords]line
	back  Backing
	stats Stats

	// OnMiss, when non-nil, observes every read miss after the
	// statistics are counted (Touch misses route through Read and are
	// covered; NoteReads counts guaranteed hits, so it never misses).
	// Observation only: it must not touch the cache.
	OnMiss func(va uint32)
}

// CodeWords is the code cache capacity.
const CodeWords = 8 * 1024

// Init readies a code cache held by value; the zero Code has no
// backing.
func (c *Code) Init(back Backing) { c.back = back }

// Read fetches a code word.
func (c *Code) Read(va uint32) (word.Word, int, error) {
	c.stats.Reads++
	ln := &c.lines[va%CodeWords]
	if ln.key == tag(word.ZNone, va) {
		return ln.data, 0, nil
	}
	c.stats.ReadMiss++
	if c.OnMiss != nil {
		c.OnMiss(va)
	}
	w, cost, err := c.back.Read(va)
	if err != nil {
		return 0, cost, err
	}
	*ln = line{key: tag(word.ZNone, va), data: w}
	return w, cost, nil
}

// Touch performs n sequential reads starting at va and returns the
// summed cost. It is the fetch-replay path of the predecoded
// instruction cache: accounting is identical to n successive Read
// calls (hits count a read at zero cost; a miss takes Read's fill),
// only the per-word call overhead is gone.
// allHit reports whether every word was already resident — callers
// with a residency guarantee (code image no larger than the cache, so
// no conflict can ever evict a filled line) may then replace future
// replays with NoteReads.
func (c *Code) Touch(va uint32, n int) (cost int, allHit bool, err error) {
	allHit = true
	for i := 0; i < n; i++ {
		a := va + uint32(i)
		if c.lines[a%CodeWords].key == tag(word.ZNone, a) {
			c.stats.Reads++
			continue
		}
		allHit = false
		_, rc, err := c.Read(a)
		cost += rc
		if err != nil {
			return cost, false, err
		}
	}
	return cost, allHit, nil
}

// NoteReads counts n reads that are guaranteed hits: the statistics
// effect of a hit is Reads++ at zero cost with no line-state change,
// so this is exactly Touch over n resident words minus the per-word
// tag checks.
func (c *Code) NoteReads(n int) { c.stats.Reads += uint64(n) }

// Stats returns a copy of the counters.
func (c *Code) Stats() Stats { return c.stats }

// ResetStats clears the counters of the data cache (contents stay).
func (c *Data) ResetStats() { c.stats = Stats{} }

// ResetStats clears the counters of the code cache (contents stay).
func (c *Code) ResetStats() { c.stats = Stats{} }

// InvalidateRange drops every code-cache line whose address falls in
// [start, end). The untimed dynamic-database load path writes physical
// memory directly instead of storing through the cache, so the lines
// it bypassed must be refetched; everything outside the range keeps
// its residency.
func (c *Code) InvalidateRange(start, end uint32) {
	if end <= start {
		return
	}
	if end-start < CodeWords {
		for a := start; a < end; a++ {
			ln := &c.lines[a%CodeWords]
			if ln.key == tag(word.ZNone, a) {
				*ln = line{}
			}
		}
		return
	}
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.key != 0 && ln.va() >= start && ln.va() < end {
			*ln = line{}
		}
	}
}

// LineState is one valid cache line, for serialization. Residency is
// machine-visible state: which lines are valid (and, for the copy-back
// data cache, which are dirty) decides the miss and writeback pattern
// of every subsequent access, so a byte-identical continuation must
// carry it across.
type LineState struct {
	VA    uint32
	Zone  word.Zone // data cache only; zero for code lines
	Data  word.Word
	Dirty bool // data cache only; the code cache is write-through
}

// ExportLines returns the valid lines of the data cache in index
// order.
func (c *Data) ExportLines() []LineState {
	var ls []LineState
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.key != 0 {
			ls = append(ls, LineState{VA: ln.va(), Zone: ln.zone(), Data: ln.data, Dirty: ln.dirty})
		}
	}
	return ls
}

// ImportLines replaces the data cache contents wholesale: every line
// not listed becomes invalid, each listed line lands at the index its
// address maps to (later duplicates overwrite earlier ones, matching
// what live traffic would have left).
func (c *Data) ImportLines(ls []LineState) {
	clear(c.lines[:]) // memclr; the per-index loop costs ~20x more
	for _, s := range ls {
		c.lines[c.index(s.VA, s.Zone)] = line{key: tag(s.Zone, s.VA), dirty: s.Dirty, data: s.Data}
	}
}

// SetStats replaces the data-cache counters wholesale (snapshot
// restore).
func (c *Data) SetStats(s Stats) { c.stats = s }

// ExportLines returns the valid lines of the code cache in index
// order.
func (c *Code) ExportLines() []LineState {
	var ls []LineState
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.key != 0 {
			ls = append(ls, LineState{VA: ln.va(), Data: ln.data})
		}
	}
	return ls
}

// ImportLines replaces the code cache contents wholesale.
func (c *Code) ImportLines(ls []LineState) {
	clear(c.lines[:]) // memclr; the per-index loop costs ~20x more
	for _, s := range ls {
		c.lines[s.VA%CodeWords] = line{key: tag(word.ZNone, s.VA), data: s.Data}
	}
}

// SetStats replaces the code-cache counters wholesale (snapshot
// restore).
func (c *Code) SetStats(s Stats) { c.stats = s }
