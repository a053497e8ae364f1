package term

import (
	"fmt"
	"sync"
)

// SymTab interns atoms to dense 24-bit indices, as required by the
// KCM functor word (atom index in the upper 24 value bits). One table
// is shared by the compiler, the loader and the machine so that atom
// words compare by value.
type SymTab struct {
	mu    sync.RWMutex
	byIdx []Atom
	byStr map[Atom]uint32
}

// NewSymTab creates a symbol table pre-loaded with the system atoms
// the run-time and the instruction encoding depend on. Index 0 is
// always "[]" so a zero atom word is the empty list name.
func NewSymTab() *SymTab {
	st := &SymTab{byStr: make(map[Atom]uint32, 64)}
	for _, a := range []Atom{"[]", ".", "true", "fail", "!", ",", ";", "->",
		"=", "is", "<", ">", "=<", ">=", "=:=", "=\\=", "+", "-", "*", "/",
		"//", "mod", "call", "write", "nl", "var", "nonvar", "atom",
		"atomic", "integer", "==", "\\==", "\\+", "end_of_file"} {
		st.Intern(a)
	}
	return st
}

// Intern returns the index for a, creating it if needed.
func (st *SymTab) Intern(a Atom) uint32 {
	st.mu.RLock()
	idx, ok := st.byStr[a]
	st.mu.RUnlock()
	if ok {
		return idx
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if idx, ok := st.byStr[a]; ok {
		return idx
	}
	idx = uint32(len(st.byIdx))
	if idx >= 1<<24 {
		panic("symtab: atom table overflow (24-bit index space)")
	}
	st.byIdx = append(st.byIdx, a)
	st.byStr[a] = idx
	return idx
}

// Lookup returns the index of a without interning.
func (st *SymTab) Lookup(a Atom) (uint32, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	idx, ok := st.byStr[a]
	return idx, ok
}

// Name returns the atom with the given index.
func (st *SymTab) Name(idx uint32) Atom {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(idx) >= len(st.byIdx) {
		return Atom(fmt.Sprintf("<atom#%d>", idx))
	}
	return st.byIdx[idx]
}

// Len returns the number of interned atoms.
func (st *SymTab) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.byIdx)
}
