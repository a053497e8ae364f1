package analysis

import (
	"sync"

	"repro/internal/word"
)

// The verdict cache memoises CheckEncoded over (block words, base,
// codeTop). Its hits are loads of a block already vetted at the same
// placement: every machine an engine pool builds from one image boots
// the same image, every lease re-loads its goal block (LoadDyn) at the
// same frontier while the database's view is unchanged, and a
// database's delta is installed at its boot frontier on each machine
// that serves it. (The compiler's own verification pass is a different
// check — AnalyzePred over its IR, on only under go test — and never
// reaches this cache.) Keyed by a 64-bit FNV-1a over the full content;
// the cache is an optimisation of a pure function, so the
// (astronomically unlikely) collision would only replay the other
// block's verdict.
var vcache = struct {
	sync.Mutex
	verdicts     map[uint64][]Diag
	hits, misses uint64
}{verdicts: map[uint64][]Diag{}}

// vcacheLimit bounds the cache; a full cache is cleared wholesale
// (load patterns are bursty, LRU bookkeeping is not worth it).
const vcacheLimit = 1024

func vcacheKey(code []word.Word, base, codeTop uint32) uint64 {
	h := word.HashWords(code)
	// Mix the placement: the same words are valid at one base and
	// invalid at another.
	h ^= (uint64(base)<<32 | uint64(codeTop)) * 0x9e3779b97f4a7c15
	return h
}

// CheckEncodedCached is CheckEncoded behind the verdict cache. The
// returned slice is shared across callers and must be treated as
// read-only.
func CheckEncodedCached(code []word.Word, base, codeTop uint32) []Diag {
	key := vcacheKey(code, base, codeTop)
	vcache.Lock()
	ds, ok := vcache.verdicts[key]
	if ok {
		vcache.hits++
		vcache.Unlock()
		return ds
	}
	vcache.misses++
	vcache.Unlock()

	ds = CheckEncoded(code, base, codeTop)

	vcache.Lock()
	if len(vcache.verdicts) >= vcacheLimit {
		vcache.verdicts = map[uint64][]Diag{}
	}
	vcache.verdicts[key] = ds
	vcache.Unlock()
	return ds
}

// VerdictCacheStats returns the cache's hit and miss counters.
func VerdictCacheStats() (hits, misses uint64) {
	vcache.Lock()
	defer vcache.Unlock()
	return vcache.hits, vcache.misses
}

// ResetVerdictCache clears the cache and its counters (tests).
func ResetVerdictCache() {
	vcache.Lock()
	defer vcache.Unlock()
	vcache.verdicts = map[uint64][]Diag{}
	vcache.hits, vcache.misses = 0, 0
}
