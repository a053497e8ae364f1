package machine

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/kcmisa"
)

// The predecoded code cache: a host-side shadow of the code space
// holding, for every code address, the decoded instruction and its
// width in words (0 = not yet decoded). It is filled lazily by the
// fetch-execute loop, so a warm run dispatches on an index instead of
// re-decoding every step.
//
// Coherence follows the paper's write-through code-cache rule: the
// hardware keeps the code cache consistent by writing code-space
// stores through to memory and into the cache in the same cycle, so a
// fetched instruction is never stale. Here every path that writes the
// code space after boot — LoadDyn, PatchDyn and Rollback (dyn.go) —
// invalidates the predecoded entries covering the written range (plus
// the MaxInstrWords-1 words before it, because a multi-word
// instruction beginning earlier may extend into the written range and
// the patch may re-partition instruction boundaries).
//
// The predecode tables carry no simulated state: the fetch-execute
// loop still drives the simulated cache.Code model word for word (a
// predecoded hit replays the same icache reads the decoder would
// issue), so cycle counts and cache statistics are identical with and
// without the host-side cache.

// pwidth entries pack the instruction width (low bits; at most
// MaxInstrWords, 255) with a "resident" flag: once a fetch replay has
// observed every word of the instruction hit in the simulated code
// cache, and residency is monotone (the code image fits in the cache,
// so no conflict can evict a line), future replays are a bare
// NoteReads — same statistics, no per-word tag checks.
const (
	pwResident  = 1 << 15
	pwWidthMask = pwResident - 1
)

// growPredecode extends the predecode tables to cover [0, top),
// preserving existing entries. When the frontier grows past the
// simulated code cache, residency stops being monotone — new code can
// conflict-evict lines the pwResident flags claim are pinned — so the
// flags set so far are swept away; replays fall back to real tag
// checks until the image fits again.
func (m *Machine) growPredecode(top uint32) {
	ok := top <= cache.CodeWords
	if m.pdecResidentOK && !ok {
		for i, w := range m.pwidth {
			if w&pwResident != 0 {
				m.pwidth[i] = w &^ pwResident
			}
		}
	}
	m.pdecResidentOK = ok
	n := int(top) - len(m.pwidth)
	if n <= 0 {
		return
	}
	// Grow geometrically: the dynamic database advances the frontier
	// one small block at a time, and an exact-size copy per advance
	// would make a long run of mutations quadratic in the tail. The
	// tables never shrink and are only written below their length, so
	// the spare capacity re-exposed here is still zero (not decoded).
	m.pdec = slices.Grow(m.pdec, n)[:top]
	m.pwidth = slices.Grow(m.pwidth, n)[:top]
}

// invalidatePredecode drops every predecoded entry that could overlap
// the written code range [start, end): any instruction starting in
// the range, and any multi-word instruction starting up to
// MaxInstrWords-1 words before it.
func (m *Machine) invalidatePredecode(start, end uint32) {
	lo := int64(start) - (kcmisa.MaxInstrWords - 1)
	if lo < 0 {
		lo = 0
	}
	hi := int64(end)
	if hi > int64(len(m.pwidth)) {
		hi = int64(len(m.pwidth))
	}
	for a := lo; a < hi; a++ {
		m.pwidth[a] = 0
	}
}

// PredecodedWidth reports the cached width of the instruction at a
// code address (0 = not predecoded). Tests use it to observe
// invalidation; it carries no simulated meaning.
func (m *Machine) PredecodedWidth(addr uint32) int {
	if int64(addr) >= int64(len(m.pwidth)) {
		return 0
	}
	return int(m.pwidth[addr] & pwWidthMask)
}
