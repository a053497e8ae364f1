package machine

import (
	"math"

	"repro/internal/term"
	"repro/internal/word"
)

// peek reads a data word without touching caches, statistics or
// timing: the escape mechanism runs on the host side, so its traffic
// is not part of the measured machine state. Dirty cache lines hold
// the truth, so the cache is consulted first.
func (m *Machine) peek(z word.Zone, a uint32) word.Word {
	if w, ok := m.dcache.Peek(a, z); ok {
		return w
	}
	pa, ok := m.dmmu.Peek(a)
	if !ok {
		return word.Invalid()
	}
	return m.phys.Peek(pa)
}

// readTerm reconstructs the source-level term a word denotes.
// maxDepth bounds runaway structures (cyclic terms cannot be built by
// pure unification without occurs-check violations, but the reader of
// a broken machine state should not hang).
func (m *Machine) readTerm(w word.Word, depth int) term.Term {
	if depth <= 0 {
		return term.Atom("...")
	}
	w = m.peekDeref(w)
	switch w.Type() {
	case word.TRef:
		return term.Var(varName(w))
	case word.TInt:
		return term.Int(w.Int())
	case word.TFloat:
		return term.Float(float64(math.Float32frombits(w.Value())))
	case word.TAtom:
		return m.syms.Name(w.Value())
	case word.TNil:
		return term.NilAtom
	case word.TList:
		// Cells come from the machine's slab builder: solution
		// readback is the warm-pool hot path, and per-cell heap
		// allocation dominated the per-query cost (the builder's
		// write-once slabs keep earlier solutions valid).
		h := m.readTerm(m.peek(word.ZGlobal, w.Addr()), depth-1)
		t := m.readTerm(m.peek(word.ZGlobal, w.Addr()+1), depth-1)
		return m.tb.Cons(h, t)
	case word.TStruct:
		f := m.peek(word.ZGlobal, w.Addr())
		if f.Type() != word.TFunc {
			return term.Atom("<corrupt-structure>")
		}
		name := m.syms.Name(f.FunctorAtom())
		t, args := m.tb.Compound(name, int(f.FunctorArity()))
		for i := range args {
			args[i] = m.readTerm(m.peek(word.ZGlobal, w.Addr()+1+uint32(i)), depth-1)
		}
		return t
	default:
		return term.Atom("<" + w.String() + ">")
	}
}

func varName(w word.Word) string {
	return "_G" + itoa(uint64(w.Addr()))
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// peekDeref is deref without timing.
func (m *Machine) peekDeref(w word.Word) word.Word {
	for i := 0; w.IsRef() && i < 1_000_000; i++ {
		v := m.peek(w.Zone(), w.Addr())
		if v == w || !v.IsRef() {
			if v.IsRef() {
				return v
			}
			return v
		}
		w = v
	}
	return w
}

// QueryBindings reads the bindings of the named query variables from
// the query's environment after a successful halt.
func (m *Machine) QueryBindings(slots map[term.Var]int) map[term.Var]term.Term {
	out := make(map[term.Var]term.Term, len(slots))
	for v, y := range slots {
		w := m.peek(word.ZLocal, m.e+envHeader+uint32(y))
		out[v] = m.readTerm(w, 1_000_000)
	}
	return out
}
