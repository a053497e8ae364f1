package machine

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/mmu"
	"repro/internal/word"
)

// CodeError rejects a malformed code block at load time: undecodable
// or truncated instructions, or jump/branch/call targets outside the
// loaded code space. The machine never executes a word of a rejected
// block.
type CodeError struct {
	Base  uint32 // intended load address of the block
	Diags []analysis.Diag
}

func (e *CodeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: rejecting code block at %d (%d findings)", e.Base, len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

// checkCode validates an encoded block before any word reaches the
// code space. Verification goes through the analyzer's verdict cache:
// the compile→load path checks every block twice, and a machine pool
// constructs each member from the same image, so a block already
// vetted at this placement is a hash lookup.
func checkCode(code []word.Word, base, codeTop uint32) error {
	if ds := analysis.CheckEncodedCached(code, base, codeTop); len(ds) > 0 {
		return &CodeError{Base: base, Diags: ds}
	}
	return nil
}

// Incremental compilation support (section 3.2.1). KCM keeps separate
// code and data address spaces; newly compiled code can reach the
// code space two ways:
//
//   - incrementally, writing each word directly through the
//     write-through code cache (cheap for a clause or two);
//   - in batch, writing a large block into the data space (where the
//     copy-back cache makes writes efficient), then asking the memory
//     management system to detach the staged pages from the data
//     space and attach the physical pages to the code space.

// CodeTop returns the first free code-space address, where the next
// incremental load will land.
func (m *Machine) CodeTop() uint32 { return m.codeTop }

// LoadIncremental writes a freshly linked code block at CodeTop
// through the code cache and returns its base address.
func (m *Machine) LoadIncremental(code []word.Word) (uint32, error) {
	base := m.codeTop
	if err := checkCode(code, base, m.codeTop); err != nil {
		return 0, err
	}
	for i, w := range code {
		cost, err := m.icache.Write(base+uint32(i), w)
		m.stats.Cycles += uint64(cost)
		if err != nil {
			return 0, fmt.Errorf("machine: incremental load: %w", err)
		}
	}
	m.codeTop += uint32(len(code))
	m.shadowWrite(base, code)
	m.growPredecode(m.codeTop)
	m.invalidatePredecode(base, m.codeTop)
	return base, nil
}

// LoadBatch stages a code block in the data space and hands the
// underlying physical pages over to the code space. The block is
// placed at CodeTop rounded up to a page boundary (page handover works
// in whole pages). It returns the code-space base address of the
// block.
func (m *Machine) LoadBatch(code []word.Word) (uint32, error) {
	if len(code) == 0 {
		return m.codeTop, nil
	}
	// Round the load address to a page boundary.
	base := (m.codeTop + mmu.PageWords - 1) &^ (mmu.PageWords - 1)
	pages := (uint32(len(code)) + mmu.PageWords - 1) / mmu.PageWords
	if err := checkCode(code, base, m.codeTop); err != nil {
		return 0, err
	}

	// Stage in the data space: a scratch window in the static zone,
	// page-aligned so the frames can be detached wholesale.
	stageBase := uint32(0x0E00000)
	m.dmmu.SetZone(word.ZStatic, mmu.Zone{
		Start: stageBase, End: stageBase + pages*mmu.PageWords,
		AllowedTypes: mmu.TypeMask(word.TDataPtr),
	})
	m.setProbe()
	for i, w := range code {
		cost, err := m.dcache.Write(stageBase+uint32(i), word.ZStatic, w)
		m.stats.Cycles += uint64(cost)
		if err != nil {
			return 0, fmt.Errorf("machine: batch stage: %w", err)
		}
	}
	// Flush the staged lines so physical memory holds the truth, then
	// drop them from the data cache: the virtual data page is about to
	// disappear.
	cost, err := m.dcache.Flush()
	m.stats.Cycles += uint64(cost)
	if err != nil {
		return 0, err
	}
	m.dcache.InvalidateRange(word.ZStatic, stageBase, stageBase+pages*mmu.PageWords)

	// Hand each physical page from the data space to the code space.
	for p := uint32(0); p < pages; p++ {
		frame, ok := m.dmmu.Unmap(stageBase + p*mmu.PageWords)
		if !ok {
			return 0, fmt.Errorf("machine: batch load: staged page %d unmapped", p)
		}
		m.cmmu.Map(base+p*mmu.PageWords, frame)
	}
	m.codeTop = base + uint32(len(code))
	m.shadowWrite(base, code)
	m.growPredecode(m.codeTop)
	m.invalidatePredecode(base, m.codeTop)
	return base, nil
}

// PatchCode overwrites len(code) words of already-loaded code at
// addr, writing through the code cache exactly as incremental
// compilation does — the paper's coherence rule: a code-space store
// updates memory and the write-through code cache in the same access,
// so a later fetch can never see stale words. The predecoded entries
// covering the patched range are invalidated for the same reason
// (including instructions that begin before the range but extend into
// it, and re-partitioned multi-word boundaries).
//
// The block is validated before any word lands: it must decode
// cleanly, multi-word instructions must not be truncated, and control
// transfers must target loaded code (boundaries inside the patch,
// anywhere in [0, CodeTop) outside it).
func (m *Machine) PatchCode(addr uint32, code []word.Word) error {
	end := uint64(addr) + uint64(len(code))
	if end > uint64(m.codeTop) {
		return fmt.Errorf("machine: patch [%d,%d) outside loaded code [0,%d)",
			addr, end, m.codeTop)
	}
	if ds := analysis.CheckPatched(code, addr, m.codeTop); len(ds) > 0 {
		return &CodeError{Base: addr, Diags: ds}
	}
	for i, w := range code {
		cost, err := m.icache.Write(addr+uint32(i), w)
		m.stats.Cycles += uint64(cost)
		if err != nil {
			return fmt.Errorf("machine: patch: %w", err)
		}
	}
	m.shadowWrite(addr, code)
	m.invalidatePredecode(addr, uint32(end))
	return nil
}
