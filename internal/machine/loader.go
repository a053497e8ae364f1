package machine

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
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
// code space. Verification goes through the analyzer's verdict cache,
// so a block already vetted at this placement is a hash lookup: a pool
// boots each of its machines from the same image, re-loads a goal
// block at the same frontier on every lease, and installs a database's
// delta at the boot frontier of each machine that serves it.
func checkCode(code []word.Word, base, codeTop uint32) error {
	if ds := analysis.CheckEncodedCached(code, base, codeTop); len(ds) > 0 {
		return &CodeError{Base: base, Diags: ds}
	}
	return nil
}

// CodeTop returns the first free code-space address, where the next
// LoadDyn block will land.
func (m *Machine) CodeTop() uint32 { return m.codeTop }
