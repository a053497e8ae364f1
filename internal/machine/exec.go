package machine

import (
	"math"

	"repro/internal/kcmisa"
	"repro/internal/trace"
	"repro/internal/word"
)

// steps is the fetch-execute loop: it executes at most limit
// instructions, stopping early on halt or machine fault, and returns
// the number executed. It is RunFor's hot path — no allocation, no
// clock reads, no context polls happen here.
//
// The loop dispatches through the predecoded code cache (see
// predecode.go): on a predecode hit it replays the instruction's
// code-cache reads word for word — keeping the simulated cycle and
// cache accounting identical to a decode — and executes the cached
// kcmisa.Instr in place, with zero host allocation per step.
func (m *Machine) steps(limit uint64) uint64 {
	if m.hook != nil {
		// One branch per chunk routes to the traced twin of this loop
		// (traced.go); the plain path below stays allocation-free and
		// emission-free.
		return m.stepsTraced(limit)
	}
	steps := uint64(0)
	for !m.halted && m.err == nil && steps < limit {
		addr := m.p
		var in *kcmisa.Instr
		var nw int
		if int64(addr) < int64(len(m.pwidth)) {
			w := m.pwidth[addr]
			steps++
			in = &m.pdec[addr]
			if w != 0 {
				// Predecoded hit: touch the same code-cache words the
				// decoder would fetch, in the same order. Once every
				// word has been seen resident (and no conflict can
				// evict it), the replay collapses to a read count.
				nw = int(w & pwWidthMask)
				if w&pwResident != 0 {
					m.icache.NoteReads(nw)
				} else {
					cost, allHit, err := m.icache.Touch(addr, nw)
					m.stats.Cycles += uint64(cost)
					if err != nil && m.err == nil {
						m.err = classifyTrap(err)
					}
					if allHit && m.pdecResidentOK {
						m.pwidth[addr] = w | pwResident
					}
				}
			} else {
				nw = kcmisa.DecodeInto(m.fetch, addr, in)
				if m.err == nil {
					m.pwidth[addr] = uint16(nw)
				}
			}
		} else {
			// Beyond the predecoded range (executing past CodeTop):
			// decode into the scratch slot without caching.
			steps++
			nw = kcmisa.DecodeInto(m.fetch, addr, &m.scratch)
			in = &m.scratch
		}
		if m.err != nil {
			break
		}
		m.stats.Instrs++
		m.p += uint32(nw)
		m.exec(in)
		if m.err != nil && m.recoverHeap(addr) {
			// A heap overflow cleared by collection: re-run the faulting
			// instruction against the compacted heap. Every
			// heap-allocating instruction rolls back to a restartable
			// state on a failed push, so the retry re-executes it whole.
			m.p = addr
		}
	}
	return steps
}

func (m *Machine) bootstrap(entry uint32) {
	hooked := m.hook != nil
	var before uint64
	if hooked {
		m.traceP = entry
		m.pendingCallSet = false
		before = m.stats.Cycles
	}
	m.stats.NsPerCycle = m.cfg.CycleNs
	if m.stats.NsPerCycle == 0 {
		m.stats.NsPerCycle = 80
	}
	// Discard any execution state a previous query left behind, so a
	// reused machine boots exactly like a fresh one (the shallow flag
	// in particular must not leak: a stale SF would redirect the first
	// failure to a stale shadow alternative).
	m.halted, m.failed = false, false
	m.sf, m.cf = false, false
	m.mode = false
	m.s = 0
	// Argument registers are garbage-collection roots (gc.Roots takes
	// the whole file), so values a previous query left in them would
	// keep dead heap cells alive across Reset — a collection in the new
	// query would then free less, move H differently, and diverge from
	// a fresh machine's counters. Clear them, and the shallow-mode
	// shadow registers with them.
	for i := range m.regs {
		m.regs[i] = 0
	}
	m.shadowH, m.shadowTR, m.shadowNext = 0, 0, 0
	m.pendingCallSet = false
	m.h = m.cfg.GlobalBase
	m.tr = m.cfg.TrailBase
	m.e = 0
	m.b = 0
	m.b0 = 0
	m.cp = 0
	m.bLTOP = m.cfg.LocalBase
	m.hb = m.h
	// Bottom choice point: its alternative is the halt_fail word at
	// code address 0, so an exhausted search stops the machine.
	m.pushCP(0, 0, m.h, m.tr)
	m.b0 = m.b
	m.p = entry
	// Disarm the overflow-retry progress guard: Instrs can restart
	// from zero across sessions, and no instruction of this session
	// has been granted a retry yet.
	m.gcRetryAddr, m.gcRetryInstr = 0, ^uint64(0)
	if hooked {
		m.emit(trace.Event{Kind: trace.KBoot, P: entry, Addr: m.b, Cycles: m.stats.Cycles - before})
	}
}

// unifyNilInstr is the canonical unify_nil expansion; exec never
// mutates its operand, so one shared instance serves every step.
var unifyNilInstr = kcmisa.Instr{Op: kcmisa.UnifyConst, K: word.Nil()}

// exec dispatches one decoded instruction. The pointer is into the
// predecoded code cache (or the scratch slot); exec must not mutate
// or retain it.
func (m *Machine) exec(in *kcmisa.Instr) {
	if in.Mark {
		m.stats.Inferences++
	}
	c := &m.costs
	switch in.Op {
	case kcmisa.Noop:
		m.cyc(1)

	// ---- control ----
	case kcmisa.Call:
		m.stats.Inferences++
		m.cyc(c.Call)
		m.cp = m.p
		m.b0 = m.b
		m.sf = false
		m.p = uint32(in.L)
		m.maybeGC()
	case kcmisa.Execute:
		m.stats.Inferences++
		m.cyc(c.Execute)
		m.b0 = m.b
		m.sf = false
		m.p = uint32(in.L)
		m.maybeGC()
	case kcmisa.Proceed:
		m.cyc(c.Proceed)
		m.p = m.cp
	case kcmisa.Jump:
		m.cyc(c.Execute)
		m.p = uint32(in.L)
	case kcmisa.Fail:
		m.fail()
	case kcmisa.Halt:
		m.cyc(c.Halt)
		m.halted = true
	case kcmisa.HaltFail:
		m.cyc(c.Halt)
		m.halted = true
		m.failed = true

	case kcmisa.Allocate:
		m.cyc(c.Allocate)
		m.stats.EnvAllocs++
		newE := m.envTop()
		ok := m.wr(word.ZLocal, newE, ptrOrZero(word.TEnvPtr, word.ZLocal, m.e)) &&
			m.wr(word.ZLocal, newE+1, word.CodePtr(m.cp)) &&
			m.wr(word.ZLocal, newE+2, word.Make(word.TImm, word.ZNone, uint32(in.N)))
		if !ok {
			return
		}
		m.e = newE
	case kcmisa.Deallocate:
		m.cyc(c.Deallocate)
		cpw, ok1 := m.rd(word.ZLocal, m.e+1)
		cew, ok2 := m.rd(word.ZLocal, m.e)
		if !(ok1 && ok2) {
			return
		}
		m.cp = cpw.Value()
		m.e = cew.Value()

	// ---- alternatives (shallow backtracking) ----
	case kcmisa.TryMeElse:
		m.enterTry(in.N, uint32(in.L), 0, true)
	case kcmisa.Try:
		m.enterTry(in.N, m.p, uint32(in.L), true)
	case kcmisa.RetryMeElse:
		m.enterTry(in.N, uint32(in.L), 0, false)
	case kcmisa.Retry:
		m.enterTry(in.N, m.p, uint32(in.L), false)
	case kcmisa.TrustMe:
		m.enterTrust(0)
	case kcmisa.Trust:
		m.enterTrust(uint32(in.L))

	case kcmisa.Neck:
		if !m.sf {
			m.stats.NeckDet++
			m.cyc(c.NeckDet)
			return
		}
		m.sf = false
		if m.cf {
			m.stats.NeckUpdates++
			m.cyc(2)
			m.wr(word.ZChoice, m.b+cpNext, word.CodePtr(uint32(m.shadowNext)))
			return
		}
		m.cyc(c.NeckCP)
		m.pushCP(in.N, uint32(m.shadowNext), m.shadowH, m.shadowTR)

	case kcmisa.Cut:
		m.cyc(c.Cut)
		m.b = m.b0
		m.reloadB()
		m.sf = false
		m.cf = false
		m.tidyTrailAfterCut()
	case kcmisa.SaveB0:
		m.cyc(c.Move)
		m.writeY(in.N, ptrOrZero(word.TChpPtr, word.ZChoice, m.b0))
	case kcmisa.CutY:
		m.cyc(c.Cut)
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		m.b = w.Value()
		m.reloadB()
		m.sf = false
		m.cf = false
		m.tidyTrailAfterCut()

	// ---- switches ----
	case kcmisa.SwitchOnTerm:
		m.cyc(c.SwitchTerm)
		v := m.deref(m.regs[1])
		if m.err != nil {
			return
		}
		var l int
		switch v.Type() {
		case word.TRef:
			l = in.SwT.Var
		case word.TList:
			l = in.SwT.List
		case word.TStruct:
			l = in.SwT.Struct
		default:
			l = in.SwT.Const
		}
		m.branch(l)
	case kcmisa.SwitchOnConst:
		m.cyc(c.SwitchTable)
		v := m.deref(m.regs[1])
		if m.err != nil {
			return
		}
		for _, e := range in.Sw {
			if sameConst(e.Key, v) {
				m.branch(e.L)
				return
			}
		}
		m.branch(in.L)
	case kcmisa.SwitchOnStruct:
		m.cyc(c.SwitchTable)
		v := m.deref(m.regs[1])
		if m.err != nil {
			return
		}
		if v.Type() != word.TStruct {
			m.fail()
			return
		}
		f, ok := m.rd(word.ZGlobal, v.Addr())
		if !ok {
			return
		}
		for _, e := range in.Sw {
			if sameConst(e.Key, f) {
				m.branch(e.L)
				return
			}
		}
		m.branch(in.L)

	// ---- get ----
	case kcmisa.GetVarX:
		m.cyc(c.Move)
		m.regs[in.R1] = m.regs[in.R2]
	case kcmisa.GetValX:
		u, ok := m.unify(m.regs[in.R1], m.regs[in.R2])
		if !ok {
			return
		}
		if !u {
			m.fail()
		}
	case kcmisa.GetConst:
		m.cyc(c.GetConst)
		m.getConstant(in.K, m.regs[in.R2])
	case kcmisa.GetNil:
		m.cyc(c.GetConst)
		m.getConstant(word.Nil(), m.regs[in.R2])
	case kcmisa.GetList:
		v := m.deref(m.regs[in.R2])
		if m.err != nil {
			return
		}
		switch v.Type() {
		case word.TList:
			m.cyc(c.GetListRead)
			m.s = v.Addr()
			m.mode = false
		case word.TRef:
			m.cyc(c.GetListWrite)
			if !m.bind(v, word.ListPtr(m.h)) {
				return
			}
			m.mode = true
		default:
			m.cyc(c.GetListRead)
			m.fail()
		}
	case kcmisa.GetStruct:
		v := m.deref(m.regs[in.R2])
		if m.err != nil {
			return
		}
		switch v.Type() {
		case word.TStruct:
			m.cyc(c.GetStructRead)
			f, ok := m.rd(word.ZGlobal, v.Addr())
			if !ok {
				return
			}
			if !sameConst(f, in.K) {
				m.fail()
				return
			}
			m.s = v.Addr() + 1
			m.mode = false
		case word.TRef:
			m.cyc(c.GetStructWrite)
			trBefore := m.tr
			if !m.bind(v, word.StructPtr(m.h)) {
				return
			}
			if !m.heapPush(in.K) {
				// The functor push overflowed after the variable was
				// already bound to the (unpushed) structure. Undo the
				// binding untimed so an overflow-retry re-executes the
				// instruction from a clean state — otherwise the retry
				// would take the read path into a garbage functor.
				m.poke(v.Zone(), v.Addr(), word.Ref(v.Zone(), v.Addr()))
				m.tr = trBefore
				return
			}
			m.mode = true
		default:
			m.cyc(c.GetStructRead)
			m.fail()
		}

	// ---- unify ----
	case kcmisa.UnifyVarX:
		if m.mode {
			m.cyc(c.UnifyWrite)
			r, ok := m.newHeapVar()
			if !ok {
				return
			}
			m.regs[in.R1] = r
		} else {
			m.cyc(c.UnifyRead)
			w, ok := m.rd(word.ZGlobal, m.s)
			if !ok {
				return
			}
			m.regs[in.R1] = m.canonCell(w, m.s)
			m.s++
		}
	case kcmisa.UnifyVarY:
		if m.mode {
			m.cyc(c.UnifyWrite)
			r, ok := m.newHeapVar()
			if !ok {
				return
			}
			m.writeY(in.N, r)
		} else {
			m.cyc(c.UnifyRead)
			w, ok := m.rd(word.ZGlobal, m.s)
			if !ok {
				return
			}
			m.writeY(in.N, m.canonCell(w, m.s))
			m.s++
		}
	case kcmisa.UnifyValX:
		m.unifyValue(m.regs[in.R1], false)
	case kcmisa.UnifyLocX:
		v := m.unifyValue(m.regs[in.R1], true)
		if v != 0 {
			m.regs[in.R1] = v
		}
	case kcmisa.UnifyValY:
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		m.unifyValue(w, false)
	case kcmisa.UnifyLocY:
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		m.unifyValue(w, true)
	case kcmisa.UnifyConst:
		if m.mode {
			m.cyc(c.UnifyWrite)
			m.heapPush(in.K)
		} else {
			m.cyc(c.UnifyRead)
			w, ok := m.rd(word.ZGlobal, m.s)
			if !ok {
				return
			}
			m.s++
			m.getConstant(in.K, m.canonCell(w, m.s-1))
		}
	case kcmisa.UnifyNil:
		m.exec(&unifyNilInstr)
	case kcmisa.UnifyList:
		// The current subterm slot holds the next cell of a list
		// spine: continue unification there without a temporary.
		if m.mode {
			m.cyc(c.UnifyWrite)
			m.heapPush(word.ListPtr(m.h + 1))
		} else {
			m.cyc(c.UnifyRead)
			w, ok := m.rd(word.ZGlobal, m.s)
			if !ok {
				return
			}
			m.s++
			v := m.deref(w)
			if m.err != nil {
				return
			}
			switch v.Type() {
			case word.TList:
				m.s = v.Addr()
			case word.TRef:
				if !m.bind(v, word.ListPtr(m.h)) {
					return
				}
				m.mode = true
			default:
				m.fail()
			}
		}
	case kcmisa.UnifyVoid:
		if m.mode {
			m.cyc(c.UnifyWrite * in.N)
			h0 := m.h
			for i := 0; i < in.N; i++ {
				if _, ok := m.newHeapVar(); !ok {
					// Roll back the cells already pushed: an
					// overflow-retry re-runs the whole instruction, and
					// keeping a partial prefix would shift the remaining
					// cells of the enclosing block out of position.
					m.h = h0
					return
				}
			}
		} else {
			m.cyc(c.UnifyRead)
			m.s += uint32(in.N)
		}

	// ---- put ----
	case kcmisa.PutVarX:
		m.cyc(c.PutVar)
		r, ok := m.newHeapVar()
		if !ok {
			return
		}
		m.regs[in.R1] = r
		m.regs[in.R2] = r
	case kcmisa.PutVarY:
		m.cyc(c.PutVar)
		a := m.yAddr(in.N)
		r := word.Ref(word.ZLocal, a.Value())
		if !m.writeData(a, r) {
			return
		}
		m.regs[in.R2] = r
	case kcmisa.PutValX:
		m.cyc(c.Move)
		m.regs[in.R2] = m.regs[in.R1]
	case kcmisa.PutValY:
		m.cyc(c.Move)
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		m.regs[in.R2] = w
	case kcmisa.PutUnsafeY:
		m.cyc(c.PutUnsafe)
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		v := m.deref(w)
		if m.err != nil {
			return
		}
		if v.IsRef() && v.Zone() == word.ZLocal {
			r, ok := m.newHeapVar()
			if !ok {
				return
			}
			if !m.bind(v, r) {
				return
			}
			v = r
		}
		m.regs[in.R2] = v
	case kcmisa.PutConst:
		m.cyc(c.Move)
		m.regs[in.R2] = in.K
	case kcmisa.PutNil:
		m.cyc(c.Move)
		m.regs[in.R2] = word.Nil()
	case kcmisa.PutList:
		m.cyc(c.Move)
		m.regs[in.R2] = word.ListPtr(m.h)
		m.mode = true
	case kcmisa.PutStruct:
		m.cyc(c.Move)
		if !m.heapPush(in.K) {
			return
		}
		m.regs[in.R2] = word.StructPtr(m.h - 1)
		m.mode = true
	case kcmisa.MoveXY:
		m.cyc(c.Move)
		m.writeY(in.N, m.regs[in.R1])
	case kcmisa.MoveYX:
		m.cyc(c.Move)
		w, ok := m.readY(in.N)
		if !ok {
			return
		}
		m.regs[in.R1] = w

	// ---- inline arithmetic and tests ----
	case kcmisa.LoadConst:
		m.cyc(c.Move)
		m.regs[in.R1] = in.K
	case kcmisa.Add, kcmisa.Sub, kcmisa.Mul, kcmisa.Div, kcmisa.Mod,
		kcmisa.Rem, kcmisa.Band, kcmisa.Bor, kcmisa.Bxor, kcmisa.Shl,
		kcmisa.Shr, kcmisa.MinOp, kcmisa.MaxOp:
		m.arith(in)
	case kcmisa.Abs:
		a, ok := m.numArg(m.regs[in.R1])
		if !ok {
			return
		}
		m.cyc(c.ArithOp)
		if a.isFloat {
			f := a.f
			if f < 0 {
				f = -f
			}
			m.regs[in.R3] = word.FromFloat(math.Float32bits(f))
		} else {
			v := a.i
			if v < 0 {
				v = -v
			}
			m.regs[in.R3] = word.FromInt(v)
		}
	case kcmisa.CmpLt, kcmisa.CmpLe, kcmisa.CmpGt, kcmisa.CmpGe, kcmisa.CmpEq, kcmisa.CmpNe:
		m.compare(in)
	case kcmisa.TestVar, kcmisa.TestNonvar, kcmisa.TestAtom, kcmisa.TestInteger, kcmisa.TestAtomic:
		m.typeTest(in)
	case kcmisa.IdentEq:
		eq, ok := m.identical(m.regs[in.R1], m.regs[in.R2])
		if ok && !eq {
			m.fail()
		}
	case kcmisa.IdentNe:
		eq, ok := m.identical(m.regs[in.R1], m.regs[in.R2])
		if ok && eq {
			m.fail()
		}
	case kcmisa.UnifyRegs:
		u, ok := m.unify(m.regs[in.R1], m.regs[in.R2])
		if ok && !u {
			m.fail()
		}

	case kcmisa.Builtin:
		m.stats.Builtins++
		m.stats.Inferences++
		m.cyc(c.BuiltinEsc)
		m.builtin(in.N)

	default:
		m.errw(ErrIllegalOpcode, "%v", in.Op)
	}
}

// canonCell turns a self-reference read from the heap into a
// reference word (it already is one; this keeps the invariant
// explicit for cells read through S).
func (m *Machine) canonCell(w word.Word, addr uint32) word.Word {
	_ = addr
	return w
}

// branch jumps to a resolved label or fails.
func (m *Machine) branch(l int) {
	if l == kcmisa.FailLabel {
		m.fail()
		return
	}
	m.p = uint32(l)
}

// enterTry implements try_me_else/try and retry_me_else/retry. next
// is the alternative address; jumpTo is non-zero for the out-of-line
// forms. first marks try (vs retry).
func (m *Machine) enterTry(arity int, next uint32, jumpTo uint32, first bool) {
	if m.shallow {
		m.stats.ShallowTries++
		m.cyc(m.costs.TryShallow)
		m.shadowH = m.h
		m.shadowTR = m.tr
		m.shadowNext = int(next)
		m.hb = m.h
		m.sf = true
		if first {
			m.cf = false
		}
	} else {
		// Standard WAM: materialise or retarget the choice point now.
		if first {
			m.cyc(m.costs.NeckCP)
			m.pushCP(arity, next, m.h, m.tr)
		} else {
			m.cyc(2)
			m.wr(word.ZChoice, m.b+cpNext, word.CodePtr(next))
		}
	}
	if jumpTo != 0 {
		m.p = jumpTo
	}
}

// enterTrust implements trust_me/trust.
func (m *Machine) enterTrust(jumpTo uint32) {
	m.cyc(m.costs.TrustOp)
	if m.shallow {
		if m.cf {
			m.popCP()
			m.cf = false
		} else {
			m.reloadB()
		}
		m.sf = false
	} else {
		m.popCP()
	}
	if jumpTo != 0 {
		m.p = jumpTo
	}
}

// getConstant unifies a register value with a constant.
func (m *Machine) getConstant(k, reg word.Word) {
	v := m.deref(reg)
	if m.err != nil {
		return
	}
	if v.IsRef() {
		m.bind(v, k)
		return
	}
	if !sameConst(v, k) {
		m.fail()
	}
}

// unifyValue implements unify_value / unify_local_value. In write
// mode the local variant dereferences and globalises an unbound local
// variable; the returned word (if non-zero) is the globalised value
// for updating the register cache.
func (m *Machine) unifyValue(w word.Word, local bool) word.Word {
	c := &m.costs
	if m.mode {
		m.cyc(c.UnifyWrite)
		if local {
			v := m.deref(w)
			if m.err != nil {
				return 0
			}
			if v.IsRef() && v.Zone() == word.ZLocal {
				// Globalise: the pushed heap cell becomes the variable.
				r, ok := m.newHeapVar()
				if !ok {
					return 0
				}
				if !m.bind(v, r) {
					return 0
				}
				return r
			}
			m.heapPush(v)
			return 0
		}
		m.heapPush(w)
		return 0
	}
	m.cyc(c.UnifyRead)
	sw, ok := m.rd(word.ZGlobal, m.s)
	if !ok {
		return 0
	}
	m.s++
	u, ok := m.unify(w, sw)
	if ok && !u {
		m.fail()
	}
	return 0
}

// ---- arithmetic ----

type number struct {
	isFloat bool
	i       int32
	f       float32
}

func (m *Machine) numArg(w word.Word) (number, bool) {
	v := m.deref(w)
	if m.err != nil {
		return number{}, false
	}
	switch v.Type() {
	case word.TInt:
		return number{i: v.Int()}, true
	case word.TFloat:
		return number{isFloat: true, f: math.Float32frombits(v.Value())}, true
	case word.TRef:
		m.errw(ErrArithmetic, "unbound operand")
		return number{}, false
	default:
		m.errw(ErrArithmetic, "non-numeric operand %v", v)
		return number{}, false
	}
}

func (m *Machine) arith(in *kcmisa.Instr) {
	a, ok := m.numArg(m.regs[in.R1])
	if !ok {
		return
	}
	b, ok := m.numArg(m.regs[in.R2])
	if !ok {
		return
	}
	c := &m.costs
	switch in.Op {
	case kcmisa.Mul:
		m.cyc(c.MulOp)
	case kcmisa.Div, kcmisa.Mod, kcmisa.Rem:
		m.cyc(c.DivOp)
	default:
		m.cyc(c.ArithOp)
	}
	if a.isFloat || b.isFloat {
		af, bf := a.f, b.f
		if !a.isFloat {
			af = float32(a.i)
		}
		if !b.isFloat {
			bf = float32(b.i)
		}
		var r float32
		switch in.Op {
		case kcmisa.Add:
			r = af + bf
		case kcmisa.Sub:
			r = af - bf
		case kcmisa.Mul:
			r = af * bf
		case kcmisa.Div:
			if bf == 0 {
				m.errw(ErrArithmetic, "float division by zero")
				return
			}
			r = af / bf
		case kcmisa.MinOp:
			r = af
			if bf < af {
				r = bf
			}
		case kcmisa.MaxOp:
			r = af
			if bf > af {
				r = bf
			}
		default:
			m.errw(ErrArithmetic, "%v on floats", in.Op)
			return
		}
		m.regs[in.R3] = word.FromFloat(math.Float32bits(r))
		return
	}
	ai, bi := a.i, b.i
	var r int32
	switch in.Op {
	case kcmisa.Add:
		r = ai + bi
	case kcmisa.Sub:
		r = ai - bi
	case kcmisa.Mul:
		r = ai * bi
	case kcmisa.Div:
		if bi == 0 {
			m.errw(ErrArithmetic, "integer division by zero")
			return
		}
		r = ai / bi
	case kcmisa.Mod:
		if bi == 0 {
			m.errw(ErrArithmetic, "mod by zero")
			return
		}
		r = ai % bi
		// Prolog mod takes the sign of the divisor.
		if r != 0 && (r < 0) != (bi < 0) {
			r += bi
		}
	case kcmisa.Rem:
		if bi == 0 {
			m.errw(ErrArithmetic, "rem by zero")
			return
		}
		r = ai % bi
	case kcmisa.Band:
		r = ai & bi
	case kcmisa.Bor:
		r = ai | bi
	case kcmisa.Bxor:
		r = ai ^ bi
	case kcmisa.Shl:
		r = ai << (uint32(bi) & 31)
	case kcmisa.Shr:
		r = ai >> (uint32(bi) & 31)
	case kcmisa.MinOp:
		r = ai
		if bi < ai {
			r = bi
		}
	case kcmisa.MaxOp:
		r = ai
		if bi > ai {
			r = bi
		}
	}
	m.regs[in.R3] = word.FromInt(r)
}

func (m *Machine) compare(in *kcmisa.Instr) {
	a, ok := m.numArg(m.regs[in.R1])
	if !ok {
		return
	}
	b, ok := m.numArg(m.regs[in.R2])
	if !ok {
		return
	}
	var cmp int
	if a.isFloat || b.isFloat {
		af, bf := a.f, b.f
		if !a.isFloat {
			af = float32(a.i)
		}
		if !b.isFloat {
			bf = float32(b.i)
		}
		switch {
		case af < bf:
			cmp = -1
		case af > bf:
			cmp = 1
		}
	} else {
		switch {
		case a.i < b.i:
			cmp = -1
		case a.i > b.i:
			cmp = 1
		}
	}
	var hold bool
	switch in.Op {
	case kcmisa.CmpLt:
		hold = cmp < 0
	case kcmisa.CmpLe:
		hold = cmp <= 0
	case kcmisa.CmpGt:
		hold = cmp > 0
	case kcmisa.CmpGe:
		hold = cmp >= 0
	case kcmisa.CmpEq:
		hold = cmp == 0
	case kcmisa.CmpNe:
		hold = cmp != 0
	}
	if hold {
		m.cyc(m.costs.Compare)
		return
	}
	m.cyc(m.costs.Compare + m.costs.CompareTaken)
	m.fail()
}

func (m *Machine) typeTest(in *kcmisa.Instr) {
	m.cyc(m.costs.TestOp)
	v := m.deref(m.regs[in.R1])
	if m.err != nil {
		return
	}
	var hold bool
	switch in.Op {
	case kcmisa.TestVar:
		hold = v.IsRef()
	case kcmisa.TestNonvar:
		hold = !v.IsRef()
	case kcmisa.TestAtom:
		hold = v.Type() == word.TAtom || v.Type() == word.TNil
	case kcmisa.TestInteger:
		hold = v.Type() == word.TInt
	case kcmisa.TestAtomic:
		switch v.Type() {
		case word.TAtom, word.TNil, word.TInt, word.TFloat:
			hold = true
		}
	}
	if !hold {
		m.cyc(m.costs.CompareTaken)
		m.fail()
	}
}
