package analysis

import (
	"testing"

	"repro/internal/kcmisa"
	"repro/internal/word"
)

func TestVerdictCache(t *testing.T) {
	ResetVerdictCache()
	defer ResetVerdictCache()
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.Jump, L: 1},
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	if ds := CheckEncodedCached(code, 0, 0); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	if ds := CheckEncodedCached(code, 0, 0); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	hits, misses := VerdictCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	// The same words at a different placement are a different verdict.
	if ds := CheckEncodedCached(code, 100, 100); len(ds) != 0 {
		t.Fatalf("diags: %s", diagString(ds))
	}
	hits, misses = VerdictCacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats after rebase = %d hits, %d misses; want 1, 2", hits, misses)
	}
	// Cached findings replay too.
	bad := []word.Word{word.Word(250) << 56}
	d1 := CheckEncodedCached(bad, 0, 0)
	d2 := CheckEncodedCached(bad, 0, 0)
	if len(d1) == 0 || len(d2) != len(d1) {
		t.Fatalf("bad block verdicts: %d then %d findings", len(d1), len(d2))
	}
}
