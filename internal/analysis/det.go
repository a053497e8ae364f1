package analysis

import (
	"sort"

	"repro/internal/kcmisa"
)

// DeadArm is one switch_on_term arm proven unreachable by the mode
// analysis: dispatching can never take it for any entry mode observed
// at the fixpoint.
type DeadArm struct {
	Addr uint32 `json:"addr"` // address of the switch instruction
	Arm  string `json:"arm"`  // "var", "const", "list" or "struct"
}

// detResult carries the determinism classification of one unit plus
// the choice-point reports that fall out of the same dataflow.
type detResult struct {
	class DetClass
	// matNecks are instruction indices of neck instructions that may
	// materialise (or retarget) a choice point.
	matNecks []int
	// deadNecks are reachable necks that provably never store a
	// choice point: the shallow flag is always clear when they run.
	deadNecks []int
	deadArms  []DeadArm
}

// prunedSuccs returns a block's successor edges with switch_on_term
// arms the mode analysis proves dead removed, and records the pruned
// arms. The argument register inspected is A1, whose abstract value
// at the switch is in mi.atInstr. Pruning relies only on definite
// facts (the unbound bit clear, a type bit clear), never on definite
// unboundness — the aliasing discipline of the domain.
func prunedSuccs(u *Unit, mi *modeInfo, bi int, dead *[]DeadArm) []edge {
	g := mi.g
	b := &g.blocks[bi]
	last := b.end - 1
	in := u.Code[last]
	if in.Op != kcmisa.SwitchOnTerm || in.SwT == nil {
		return b.succs
	}
	st, ok := mi.atInstr[last]
	if !ok {
		return b.succs
	}
	a1 := st.x[1]
	record := func(arm string) {
		addr := uint32(0)
		if u.Addr != nil {
			addr = u.Addr(last)
		}
		*dead = append(*dead, DeadArm{Addr: addr, Arm: arm})
	}
	liveTargets := map[int]bool{}
	keep := func(label int, live bool, arm string) {
		if label == kcmisa.FailLabel {
			return
		}
		if live {
			liveTargets[g.blockAt[label]] = true
		} else {
			record(arm)
		}
	}
	keep(in.SwT.Var, a1.MayUnbound(), "var")
	keep(in.SwT.Const, a1.MayAtomic(), "const")
	keep(in.SwT.List, a1.MayStruct(), "list")
	keep(in.SwT.Struct, a1.MayStruct(), "struct")
	var out []edge
	for _, e := range b.succs {
		if liveTargets[e.to] {
			out = append(out, e)
		}
	}
	return out
}

// analyzeDet classifies one unit. The model follows the machine's
// shallow-backtracking semantics exactly: try/retry arm the shadow
// registers along the clause edge, trust and trust_me disarm, a call
// or escape boundary clears the shallow flag, and only a Neck
// executed while armed can materialise (first alternative) or
// retarget (later alternatives) a choice point. A predicate none of
// whose reachable necks can ever run armed never owns a choice point
// and is deterministic; if choice points exist but every path from a
// materialising neck to a successful exit passes a cut, at most one
// solution escapes and the predicate is semi-deterministic.
func analyzeDet(u *Unit, mi *modeInfo) detResult {
	g := mi.g
	res := detResult{class: Det}
	if len(g.blocks) == 0 {
		return res
	}

	// succs with mode pruning, computed once per block.
	succs := make([][]edge, len(g.blocks))
	for bi := range g.blocks {
		if mi.seen[bi] {
			succs[bi] = prunedSuccs(u, mi, bi, &res.deadArms)
		}
	}

	// May-armed dataflow. armedIn[bi] is true when some execution can
	// enter the block with a live shallow alternative.
	armedIn := make([]bool, len(g.blocks))
	visited := make([]bool, len(g.blocks))
	neckArmed := map[int]bool{} // instruction index -> may run armed
	neckSeen := map[int]bool{}
	work := []int{0}
	visited[0] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := &g.blocks[bi]
		armed := armedIn[bi]
		for idx := b.start; idx < b.end; idx++ {
			switch u.Code[idx].Op {
			case kcmisa.Neck:
				neckSeen[idx] = true
				if armed {
					neckArmed[idx] = true
				}
				armed = false
			case kcmisa.Call, kcmisa.Execute, kcmisa.Builtin,
				kcmisa.Cut, kcmisa.CutY:
				armed = false
			case kcmisa.TrustMe:
				armed = false
			}
		}
		last := b.end - 1
		op := u.Code[last].Op
		for _, e := range succs[bi] {
			out := armed
			switch op {
			case kcmisa.TryMeElse, kcmisa.RetryMeElse, kcmisa.Try, kcmisa.Retry:
				// Both the clause edge and the backtracking edge run
				// with a live alternative (the alternative itself for
				// the clause, the re-arming retry for the chain).
				out = true
			case kcmisa.Trust:
				out = false
			}
			changed := false
			if !visited[e.to] {
				visited[e.to] = true
				armedIn[e.to] = out
				changed = true
			} else if out && !armedIn[e.to] {
				armedIn[e.to] = true
				changed = true
			}
			if changed {
				work = append(work, e.to)
			}
		}
	}
	for idx := range neckSeen {
		if neckArmed[idx] {
			res.matNecks = append(res.matNecks, idx)
		} else {
			res.deadNecks = append(res.deadNecks, idx)
		}
	}
	sort.Ints(res.matNecks)
	sort.Ints(res.deadNecks)
	if len(res.matNecks) == 0 {
		// No reachable neck can ever store or retarget a choice
		// point: the predicate never owns one.
		res.class = Det
		return res
	}

	// A choice point can exist. cpIn[bi]: may the block be entered
	// with this predicate's own choice point still live? Backtracking
	// edges conservatively carry a live choice point (the deep-fail
	// case); trust/trust_me pop it, cut discards it.
	cpIn := make([]bool, len(g.blocks))
	cpVisited := make([]bool, len(g.blocks))
	survives := false
	work = work[:0]
	work = append(work, 0)
	cpVisited[0] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := &g.blocks[bi]
		cp := cpIn[bi]
		for idx := b.start; idx < b.end; idx++ {
			switch u.Code[idx].Op {
			case kcmisa.Neck:
				if neckArmed[idx] {
					cp = true
				}
			case kcmisa.Cut, kcmisa.CutY:
				cp = false
			case kcmisa.TrustMe:
				cp = false
			case kcmisa.Proceed, kcmisa.Execute, kcmisa.Halt:
				if cp {
					survives = true
				}
			}
		}
		op := u.Code[b.end-1].Op
		for _, e := range succs[bi] {
			out := cp
			switch {
			case op == kcmisa.Trust:
				out = false
			case e.kind == edgeAlt:
				out = true // deep fail restored the choice point
			}
			changed := false
			if !cpVisited[e.to] {
				cpVisited[e.to] = true
				cpIn[e.to] = out
				changed = true
			} else if out && !cpIn[e.to] {
				cpIn[e.to] = true
				changed = true
			}
			if changed {
				work = append(work, e.to)
			}
		}
	}
	if survives {
		res.class = NonDet
	} else {
		res.class = SemiDet
	}
	return res
}
