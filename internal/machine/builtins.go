package machine

import (
	"fmt"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

// builtin executes one escape built-in. Arguments are in A1..An. The
// Table 2 protocol costs every escape a flat 5 cycles (the minimum
// call/return sequence); the host-side work is untimed.
func (m *Machine) builtin(id int) {
	switch id {
	case kcmisa.BIWrite:
		fmt.Fprint(m.out, term.Display(m.readTerm(m.regs[1], 1_000_000)))
	case kcmisa.BINl:
		fmt.Fprintln(m.out)
	case kcmisa.BITab:
		v := m.deref(m.regs[1])
		if v.Type() == word.TInt {
			for i := int32(0); i < v.Int(); i++ {
				fmt.Fprint(m.out, " ")
			}
		}
	case kcmisa.BIWriteln:
		fmt.Fprintln(m.out, term.Display(m.readTerm(m.regs[1], 1_000_000)))
	case kcmisa.BIHalt:
		m.halted = true
	case kcmisa.BIFunctor:
		m.biFunctor()
	case kcmisa.BIArg:
		m.biArg()
	case kcmisa.BIUniv:
		m.biUniv()
	case kcmisa.BICall:
		m.biCall()
	default:
		m.errf("unknown built-in %d", id)
	}
}

// biFunctor implements functor(Term, Name, Arity) in both directions.
func (m *Machine) biFunctor() {
	t := m.deref(m.regs[1])
	if m.err != nil {
		return
	}
	if !t.IsRef() {
		var name, arity word.Word
		switch t.Type() {
		case word.TList:
			name = word.FromAtom(m.syms.Intern(term.DotAtom))
			arity = word.FromInt(2)
		case word.TStruct:
			f, ok := m.rd(word.ZGlobal, t.Addr())
			if !ok {
				return
			}
			name = word.FromAtom(f.FunctorAtom())
			arity = word.FromInt(int32(f.FunctorArity()))
		default:
			name = t
			arity = word.FromInt(0)
		}
		if u, ok := m.unify(m.regs[2], name); !ok || !u {
			if ok {
				m.fail()
			}
			return
		}
		if u, ok := m.unify(m.regs[3], arity); !ok || !u {
			if ok {
				m.fail()
			}
		}
		return
	}
	// Construction direction.
	name := m.deref(m.regs[2])
	ar := m.deref(m.regs[3])
	if ar.Type() != word.TInt {
		m.errf("functor/3: arity not an integer")
		return
	}
	n := int(ar.Int())
	if n == 0 {
		if u, ok := m.unify(t, name); ok && !u {
			m.fail()
		}
		return
	}
	if name.Type() != word.TAtom {
		m.errf("functor/3: name not an atom")
		return
	}
	base := m.h
	m.heapPush(word.Functor(name.Value(), n))
	for i := 0; i < n; i++ {
		m.newHeapVar()
	}
	if u, ok := m.unify(t, word.StructPtr(base)); ok && !u {
		m.fail()
	}
}

// biArg implements arg(N, Term, Arg).
func (m *Machine) biArg() {
	n := m.deref(m.regs[1])
	t := m.deref(m.regs[2])
	if m.err != nil {
		return
	}
	if n.Type() != word.TInt {
		m.errf("arg/3: index not an integer")
		return
	}
	i := n.Int()
	var arg word.Word
	switch t.Type() {
	case word.TList:
		if i < 1 || i > 2 {
			m.fail()
			return
		}
		w, ok := m.rd(word.ZGlobal, t.Addr()+uint32(i-1))
		if !ok {
			return
		}
		arg = w
	case word.TStruct:
		f, ok := m.rd(word.ZGlobal, t.Addr())
		if !ok {
			return
		}
		if i < 1 || int(i) > f.FunctorArity() {
			m.fail()
			return
		}
		w, ok := m.rd(word.ZGlobal, t.Addr()+uint32(i))
		if !ok {
			return
		}
		arg = w
	default:
		m.fail()
		return
	}
	if u, ok := m.unify(m.regs[3], arg); ok && !u {
		m.fail()
	}
}

// biUniv implements Term =.. List for the decomposition direction and
// construction from a complete list of constants/bound terms.
func (m *Machine) biUniv() {
	t := m.deref(m.regs[1])
	if m.err != nil {
		return
	}
	if !t.IsRef() {
		// Decompose: build [Name|Args] on the heap.
		var elems []word.Word
		switch t.Type() {
		case word.TList:
			h, _ := m.rd(word.ZGlobal, t.Addr())
			tl, _ := m.rd(word.ZGlobal, t.Addr()+1)
			elems = []word.Word{word.FromAtom(m.syms.Intern(term.DotAtom)), h, tl}
		case word.TStruct:
			f, ok := m.rd(word.ZGlobal, t.Addr())
			if !ok {
				return
			}
			elems = []word.Word{word.FromAtom(f.FunctorAtom())}
			for i := 1; i <= f.FunctorArity(); i++ {
				w, ok := m.rd(word.ZGlobal, t.Addr()+uint32(i))
				if !ok {
					return
				}
				elems = append(elems, w)
			}
		default:
			elems = []word.Word{t}
		}
		lst := m.buildList(elems)
		if u, ok := m.unify(m.regs[2], lst); ok && !u {
			m.fail()
		}
		return
	}
	// Construct from list.
	var elems []word.Word
	l := m.deref(m.regs[2])
	for l.Type() == word.TList {
		h, ok := m.rd(word.ZGlobal, l.Addr())
		if !ok {
			return
		}
		elems = append(elems, m.deref(h))
		tl, ok := m.rd(word.ZGlobal, l.Addr()+1)
		if !ok {
			return
		}
		l = m.deref(tl)
	}
	if l.Type() != word.TNil || len(elems) == 0 {
		m.errf("=../2: bad list")
		return
	}
	name := elems[0]
	args := elems[1:]
	var result word.Word
	switch {
	case len(args) == 0:
		result = name
	case name.Type() == word.TAtom:
		base := m.h
		m.heapPush(word.Functor(name.Value(), len(args)))
		for _, a := range args {
			m.heapPush(a)
		}
		result = word.StructPtr(base)
	default:
		m.errf("=../2: name not an atom")
		return
	}
	if u, ok := m.unify(t, result); ok && !u {
		m.fail()
	}
}

// buildList pushes a proper list of the given words onto the heap.
func (m *Machine) buildList(elems []word.Word) word.Word {
	var tail word.Word = word.Nil()
	for i := len(elems) - 1; i >= 0; i-- {
		base := m.h
		m.heapPush(elems[i])
		m.heapPush(tail)
		tail = word.ListPtr(base)
	}
	return tail
}

// biCall implements call/1: the goal term in A1 is decomposed, its
// arguments moved to the argument registers, and control transfers to
// the predicate's entry as if a compiled call had been executed (the
// paper quotes 4 cycles for "fast indirect calls via memory").
func (m *Machine) biCall() {
	g := m.deref(m.regs[1])
	if m.err != nil {
		return
	}
	var atom uint32
	var arity int
	switch g.Type() {
	case word.TAtom:
		atom, arity = g.Value(), 0
	case word.TStruct:
		f, ok := m.rd(word.ZGlobal, g.Addr())
		if !ok {
			return
		}
		atom, arity = f.FunctorAtom(), f.FunctorArity()
		for i := 1; i <= arity; i++ {
			w, ok := m.rd(word.ZGlobal, g.Addr()+uint32(i))
			if !ok {
				return
			}
			m.regs[i] = w
		}
	case word.TList:
		m.errf("call/1: list is not a callable goal")
		return
	case word.TRef:
		m.errf("call/1: unbound goal")
		return
	default:
		m.errf("call/1: %v is not callable", g)
		return
	}
	entry, ok := m.preds[term.Indicator{Name: m.syms.Name(atom), Arity: arity}]
	if !ok {
		m.errf("call/1: undefined predicate %v/%d", m.syms.Name(atom), arity)
		return
	}
	// The escape already consumed its 5 cycles; the indirect transfer
	// costs the paper's 4.
	m.cyc(4)
	m.cp = m.p
	m.b0 = m.b
	m.sf = false
	m.p = entry
	if m.hook != nil {
		// The call-boundary event must follow the escape's own KInstr
		// event; park the target for the traced loop to emit.
		m.pendingCall = entry
		m.pendingCallSet = true
	}
}
