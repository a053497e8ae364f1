package analysis

import (
	"fmt"

	"repro/internal/kcmisa"
	"repro/internal/term"
)

// Check names one class of invariant the analyzer enforces.
type Check string

// The check classes. BadOpcode, BadBuiltin and Truncated are
// structural (encoded-stream) checks; the rest are flow checks.
const (
	BadOpcode    Check = "opcode"
	BadBuiltin   Check = "builtin"
	Truncated    Check = "truncated"
	BadTarget    Check = "target"
	UseBeforeDef Check = "use-before-def"
	UninitY      Check = "uninit-y"
	EnvMisuse    Check = "environment"
	ChoiceChain  Check = "choice-chain"
	Unreachable  Check = "unreachable"
	FallsOff     Check = "falls-off-end"
)

// NoAddr marks a diagnostic without a code-space address (pre-link
// analysis, where provenance is the instruction index).
const NoAddr = ^uint32(0)

// Diag is one analyzer finding, with clause/offset provenance.
type Diag struct {
	Unit  term.Indicator // enclosing predicate ("" when unknown)
	Index int            // instruction index within the unit
	Addr  uint32         // code-space word address, NoAddr pre-link
	Check Check
	Msg   string
}

func (d Diag) String() string {
	where := fmt.Sprintf("%v+%d", d.Unit, d.Index)
	if d.Unit.Name == "" {
		where = fmt.Sprintf("+%d", d.Index)
	}
	if d.Addr != NoAddr {
		where += fmt.Sprintf("@%d", d.Addr)
	}
	return fmt.Sprintf("%s: [%s] %s", where, d.Check, d.Msg)
}

// Unit is one analyzable code unit — a predicate's instruction
// sequence with labels resolved to instruction indices (the compiler's
// pre-link form; VetEncoded converts linked code back to it).
type Unit struct {
	PI    term.Indicator
	Arity int
	Code  []kcmisa.Instr
	// Addr maps an instruction index to its code-space address for
	// diagnostics; nil pre-link.
	Addr func(i int) uint32
}

func (u *Unit) diag(i int, c Check, format string, args ...any) Diag {
	a := NoAddr
	if u.Addr != nil {
		a = u.Addr(i)
	}
	return Diag{Unit: u.PI, Index: i, Addr: a, Check: c, Msg: fmt.Sprintf(format, args...)}
}

// edgeKind distinguishes the normal control flow from the backtracking
// continuation into an alternative.
type edgeKind int

const (
	edgeNormal edgeKind = iota
	// edgeAlt is taken on failure: the machine restores A1..An (and
	// the clause-entry environment) from the choice point, then enters
	// the next retry/trust instruction.
	edgeAlt
)

type edge struct {
	to    int // target block index
	kind  edgeKind
	arity int // registers restored along an alt edge
}

type block struct {
	start, end int // instruction index range [start, end)
	succs      []edge
	preds      []edge // kind/arity as seen by the target
}

// cfg is the per-unit control-flow graph.
type cfg struct {
	u      *Unit
	blocks []block
	// blockAt maps an instruction index to the block starting there.
	blockAt map[int]int
}

// appendTargets appends every label of an instruction to dst,
// excluding call targets (checked separately: they leave the unit).
func appendTargets(dst []int, in *kcmisa.Instr) []int {
	switch in.Op {
	case kcmisa.Jump, kcmisa.TryMeElse, kcmisa.RetryMeElse,
		kcmisa.Try, kcmisa.Retry, kcmisa.Trust:
		return append(dst, in.L)
	case kcmisa.SwitchOnTerm:
		if in.SwT == nil {
			return dst
		}
		return append(dst, in.SwT.Var, in.SwT.Const, in.SwT.List, in.SwT.Struct)
	case kcmisa.SwitchOnConst, kcmisa.SwitchOnStruct:
		dst = append(dst, in.L)
		for _, e := range in.Sw {
			dst = append(dst, e.L)
		}
		return dst
	}
	return dst
}

// checkTargets validates every intra-unit label. Flow analysis is
// meaningless over dangling labels, so the caller stops on findings.
func (u *Unit) checkTargets() []Diag {
	var ds []Diag
	for i, in := range u.Code {
		if in.Op == kcmisa.SwitchOnTerm && in.SwT == nil {
			ds = append(ds, u.diag(i, BadTarget, "switch_on_term without a target table"))
			continue
		}
		for _, l := range appendTargets(nil, &in) {
			if l == kcmisa.FailLabel {
				continue
			}
			if l < 0 || l >= len(u.Code) {
				ds = append(ds, u.diag(i, BadTarget,
					"%v: target %d outside unit (%d instructions)", in.Op, l, len(u.Code)))
			}
		}
	}
	return ds
}

// buildCFG splits the unit into basic blocks. Call: it assumes
// checkTargets found nothing.
func (u *Unit) buildCFG() *cfg {
	n := len(u.Code)
	leader := make([]bool, n+1)
	leader[0] = true
	for i, in := range u.Code {
		for _, l := range appendTargets(nil, &in) {
			if l != kcmisa.FailLabel {
				leader[l] = true
			}
		}
		switch {
		case in.Transfer():
			leader[i+1] = true
		case in.Op == kcmisa.TryMeElse || in.Op == kcmisa.RetryMeElse:
			// Two successors: the alternative edge must be explicit.
			leader[i+1] = true
		}
	}
	g := &cfg{u: u, blockAt: map[int]int{}}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.blockAt[i] = len(g.blocks)
			g.blocks = append(g.blocks, block{start: i})
		}
	}
	for bi := range g.blocks {
		if bi+1 < len(g.blocks) {
			g.blocks[bi].end = g.blocks[bi+1].start
		} else {
			g.blocks[bi].end = n
		}
	}
	return g
}

// connect adds the successor edges. A fallthrough or alternative
// continuation past the end of the unit is reported as FallsOff.
func (g *cfg) connect() []Diag {
	var ds []Diag
	u := g.u
	addEdge := func(bi int, to int, k edgeKind, arity int) {
		tb := g.blockAt[to]
		g.blocks[bi].succs = append(g.blocks[bi].succs, edge{to: tb, kind: k, arity: arity})
		g.blocks[tb].preds = append(g.blocks[tb].preds, edge{to: bi, kind: k, arity: arity})
	}
	for bi := range g.blocks {
		b := &g.blocks[bi]
		last := b.end - 1
		in := u.Code[last]
		fallsTo := func(k edgeKind, arity int) {
			if last+1 >= len(u.Code) {
				ds = append(ds, u.diag(last, FallsOff,
					"%v continues past the end of the unit", in.Op))
				return
			}
			addEdge(bi, last+1, k, arity)
		}
		jumpTo := func(l int, k edgeKind, arity int) {
			if l != kcmisa.FailLabel {
				addEdge(bi, l, k, arity)
			}
		}
		switch in.Op {
		case kcmisa.Jump:
			jumpTo(in.L, edgeNormal, 0)
		case kcmisa.Try, kcmisa.Retry:
			jumpTo(in.L, edgeNormal, 0)
			fallsTo(edgeAlt, in.N)
		case kcmisa.Trust:
			jumpTo(in.L, edgeNormal, 0)
		case kcmisa.TryMeElse, kcmisa.RetryMeElse:
			fallsTo(edgeNormal, 0)
			jumpTo(in.L, edgeAlt, in.N)
		case kcmisa.SwitchOnTerm:
			for _, l := range []int{in.SwT.Var, in.SwT.Const, in.SwT.List, in.SwT.Struct} {
				jumpTo(l, edgeNormal, 0)
			}
		case kcmisa.SwitchOnConst, kcmisa.SwitchOnStruct:
			jumpTo(in.L, edgeNormal, 0)
			for _, e := range in.Sw {
				jumpTo(e.L, edgeNormal, 0)
			}
		case kcmisa.Execute, kcmisa.Proceed, kcmisa.Fail, kcmisa.Halt, kcmisa.HaltFail:
			// terminal
		default:
			fallsTo(edgeNormal, 0)
		}
	}
	return ds
}

// reachable marks blocks reachable from the unit entry.
func (g *cfg) reachable() []bool {
	seen := make([]bool, len(g.blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.blocks[bi].succs {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}
