package machine

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/term"
	"repro/internal/word"
)

// Dynamic-database support. The clause store (internal/dyndb) mutates
// a machine's code space between queries: rebuilt predicate blocks are
// appended at CodeTop, call sites of moved predicates are patched in
// place, and a pooled machine is rolled back to its boot frontier
// before another tenant's delta is replayed onto it.
//
// All of these writes are untimed: a mutation happens between queries,
// so it must not charge simulated cycles to anyone's run. Words go
// straight through the code MMU to physical memory, bypassing the
// write-through code cache, and the cache lines they bypassed are
// invalidated — the next fetch through the affected range misses and
// refills, exactly as a cold line would.
//
// Every write path is diff-aware: a word already holding its target
// value is skipped entirely, and only the span that actually changed
// is invalidated (code cache and predecode). This is what scopes
// invalidation to the mutated predicate — reinstalling an unchanged
// delta on a warm machine touches nothing — and what makes
// copy-on-write image sharing cheap: rolling a machine back and
// replaying the same tenant's delta is a comparison sweep, not a
// reload.

// CodeMark snapshots the loaded-code frontier and the meta-call
// predicate table, so a machine can later be rolled back to this
// point (dropping any code loaded and predicates registered since).
type CodeMark struct {
	top   uint32
	preds map[uint64]uint32
}

// Top returns the code frontier the mark was taken at.
func (mk CodeMark) Top() uint32 { return mk.top }

// Snapshot captures the current code frontier and predicate table.
func (m *Machine) Snapshot() CodeMark {
	mk := CodeMark{
		top:   m.codeTop,
		preds: make(map[uint64]uint32, len(m.preds)),
	}
	for k, a := range m.preds {
		mk.preds[k] = a
	}
	return mk
}

// Rollback returns the machine to a snapshot: the code frontier drops
// back to the mark, the predicate table is restored, and every
// PatchDyn below the mark is undone. Code above the mark stays in the host
// shadow and in physical memory, so reloading identical words later
// (the same tenant's delta) is free; only words that actually revert
// are invalidated.
func (m *Machine) Rollback(mk CodeMark) {
	if mk.top > m.codeTop {
		panic(fmt.Sprintf("machine: rollback above frontier: mark %d > top %d", mk.top, m.codeTop))
	}
	for a, orig := range m.dynOrig {
		if a < mk.top {
			m.writeDyn(a, orig)
		}
	}
	clear(m.dynOrig)
	// Flush the reverted words now: the next tenant may have an empty
	// delta, in which case no LoadDyn/PatchDyn follows to do it, and a
	// run would execute stale predecoded instructions.
	m.flushDyn()
	m.codeTop = mk.top
	m.growPredecode(m.codeTop)
	m.preds = make(map[uint64]uint32, len(mk.preds))
	for k, a := range mk.preds {
		m.preds[k] = a
	}
}

// TruncateCode drops the code above top without touching the
// predicate table or reverting patches: the per-query goal block is
// unloaded this way, leaving the tenant delta (and its call-site
// patches) installed below. The truncated words stay in the shadow and in
// physical memory, so reloading them verbatim later costs nothing.
func (m *Machine) TruncateCode(top uint32) {
	if top > m.codeTop {
		panic(fmt.Sprintf("machine: truncate above frontier: %d > %d", top, m.codeTop))
	}
	if top == m.codeTop {
		return
	}
	m.codeTop = top
	m.growPredecode(top)
}

// RegisterPred enters a predicate into the machine's meta-call table,
// making it callable through the call/1 escape. Incrementally loaded
// code belongs to no predicate until registered.
func (m *Machine) RegisterPred(pi term.Indicator, addr uint32) {
	idx := m.syms.Intern(pi.Name)
	m.preds[uint64(idx)<<8|uint64(pi.Arity&0xff)] = addr
}

// UnregisterPred removes a predicate from the machine's meta-call
// table (the inverse of RegisterPred): the clause store drops a
// replaced block's auxiliary entries so call/1 cannot reach dead code.
func (m *Machine) UnregisterPred(pi term.Indicator) {
	if idx, ok := m.syms.Lookup(pi.Name); ok {
		delete(m.preds, uint64(idx)<<8|uint64(pi.Arity&0xff))
	}
}

// CodeWordAt reads a loaded code word from the host-side shadow
// (untimed; no simulated state is touched).
func (m *Machine) CodeWordAt(a uint32) word.Word { return m.shadowFetch(a) }

// writeDyn writes one word to code-space physical memory, mirrors it
// into the shadow and merges it into the pending dirty span. The
// caller flushes the span through flushDyn.
func (m *Machine) writeDyn(a uint32, w word.Word) {
	if _, err := m.cmmu.Write(a, w); err != nil {
		// Code-space writes below the frontier cannot fault: the pages
		// were mapped when the words were first loaded.
		panic(fmt.Sprintf("machine: dyn write at %d: %v", a, err))
	}
	m.shadowWrite(a, []word.Word{w})
	if !m.dynDirty {
		m.dynDirty = true
		m.dynLo, m.dynHi = a, a+1
		return
	}
	if a < m.dynLo {
		m.dynLo = a
	}
	if a+1 > m.dynHi {
		m.dynHi = a + 1
	}
}

// flushDyn invalidates everything covering the pending dirty span:
// simulated code-cache lines (the writes bypassed the cache) and
// predecoded entries.
func (m *Machine) flushDyn() {
	if !m.dynDirty {
		return
	}
	lo, hi := m.dynLo, m.dynHi
	m.dynDirty = false
	m.icache.InvalidateRange(lo, hi)
	m.invalidatePredecode(lo, hi)
}

// LoadDyn loads a freshly linked code block at CodeTop, untimed, and
// returns its base address. The block is vetted exactly like
// LoadIncremental (a malformed block is rejected with a CodeError
// before any word lands); unlike LoadIncremental no simulated cycles
// are charged, and words that already hold their target value — a
// rolled-back machine reloading the same tenant's delta — are skipped,
// keeping their cache residency and predecode.
func (m *Machine) LoadDyn(code []word.Word) (uint32, error) {
	base := m.codeTop
	if len(code) == 0 {
		return base, nil
	}
	if err := checkCode(code, base, m.codeTop); err != nil {
		return 0, err
	}
	for i, w := range code {
		a := base + uint32(i)
		if int64(a) < int64(len(m.codeShadow)) && m.codeShadow[a] == w {
			continue
		}
		m.writeDyn(a, w)
	}
	m.codeTop = base + uint32(len(code))
	m.shadowWrite(base, code) // extends the shadow when nothing was dirty
	m.growPredecode(m.codeTop)
	m.flushDyn()
	return base, nil
}

// PatchDyn overwrites already-loaded code at addr, untimed, recording
// the original words so a later Rollback can restore them. The block
// is vetted like PatchCode (CheckPatched; a malformed patch is
// rejected with a CodeError before any word lands), and identical
// words are skipped like LoadDyn.
func (m *Machine) PatchDyn(addr uint32, code []word.Word) error {
	end := uint64(addr) + uint64(len(code))
	if end > uint64(m.codeTop) {
		return fmt.Errorf("machine: dyn patch [%d,%d) outside loaded code [0,%d)",
			addr, end, m.codeTop)
	}
	if ds := analysis.CheckPatched(code, addr, m.codeTop); len(ds) > 0 {
		return &CodeError{Base: addr, Diags: ds}
	}
	for i, w := range code {
		a := addr + uint32(i)
		if m.codeShadow[a] == w {
			continue
		}
		if m.dynOrig == nil {
			m.dynOrig = map[uint32]word.Word{}
		}
		if _, seen := m.dynOrig[a]; !seen {
			m.dynOrig[a] = m.codeShadow[a]
		}
		m.writeDyn(a, w)
	}
	m.flushDyn()
	return nil
}
