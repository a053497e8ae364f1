package analysis

import (
	"sort"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

// unitInfo is one predicate's slice of a linked image, converted back
// to the analyzer's pre-link form: instructions with intra-predicate
// labels remapped to local instruction indices. Call and execute
// targets are left as the absolute code-space addresses the linker
// wrote — VetEncoded checks them against the entry table, and the
// per-unit passes never read them.
type unitInfo struct {
	pi     term.Indicator
	start  uint32 // code-space address of the entry
	instrs []kcmisa.Instr
	addrs  []uint32 // code-space address of each instruction
	bad    bool     // a label left the predicate: flow analysis is off
}

// unit wraps the slice as an analyzable Unit.
func (ui *unitInfo) unit() *Unit {
	return &Unit{PI: ui.pi, Arity: ui.pi.Arity, Code: ui.instrs,
		Addr: func(i int) uint32 {
			if i < len(ui.addrs) {
				return ui.addrs[i]
			}
			return ui.start
		}}
}

// partitionEncoded decodes a linked image and splits it into
// per-predicate units by the sorted entry addresses: each predicate
// owns [its entry, the next entry), the last one owns through the end
// of the image, and words before the first entry (the bootstrap
// preamble) belong to no predicate. Structural problems — undecodable
// words, an entry off an instruction boundary, a branch label leaving
// its predicate — are reported as diagnostics; a unit with dangling
// labels is returned with bad set so callers skip flow analysis over
// it.
func partitionEncoded(code []word.Word, base uint32, entries map[term.Indicator]uint32) ([]unitInfo, []Diag) {
	ins, ds := decodeAll(code, base)
	byAddr := make(map[uint32]int, len(ins))
	for i, ei := range ins {
		byAddr[ei.addr] = i
	}

	type bound struct {
		pi         term.Indicator
		start, end uint32
	}
	var preds []bound
	for pi, a := range entries {
		preds = append(preds, bound{pi: pi, start: a})
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].start != preds[j].start {
			return preds[i].start < preds[j].start
		}
		return preds[i].pi.String() < preds[j].pi.String()
	})
	end := base + uint32(len(code))
	for i := range preds {
		if i+1 < len(preds) {
			preds[i].end = preds[i+1].start
		} else {
			preds[i].end = end
		}
	}

	var units []unitInfo
	for _, p := range preds {
		ui := unitInfo{pi: p.pi, start: p.start}
		i0, ok := byAddr[p.start]
		if !ok {
			u := Unit{PI: p.pi, Addr: func(int) uint32 { return p.start }}
			ds = append(ds, u.diag(0, BadTarget,
				"entry %v at %d is not an instruction boundary", p.pi, p.start))
			ui.bad = true
			units = append(units, ui)
			continue
		}
		localAt := map[uint32]int{}
		for i := i0; i < len(ins) && ins[i].addr < p.end; i++ {
			localAt[ins[i].addr] = len(ui.instrs)
			ui.instrs = append(ui.instrs, ins[i].in)
			ui.addrs = append(ui.addrs, ins[i].addr)
		}
		u := ui.unit()
		remap := func(idx int, l *int) {
			if *l == kcmisa.FailLabel {
				return
			}
			li, ok := localAt[uint32(*l)]
			if !ok {
				ds = append(ds, u.diag(idx, BadTarget,
					"%v targets %d outside predicate %v [%d,%d)",
					ui.instrs[idx].Op, *l, p.pi, p.start, p.end))
				ui.bad = true
				return
			}
			*l = li
		}
		for idx := range ui.instrs {
			in := &ui.instrs[idx]
			switch in.Op {
			case kcmisa.TryMeElse, kcmisa.RetryMeElse, kcmisa.Try,
				kcmisa.Retry, kcmisa.Trust, kcmisa.Jump:
				remap(idx, &in.L)
			case kcmisa.SwitchOnTerm:
				if in.SwT == nil {
					continue
				}
				t := *in.SwT
				remap(idx, &t.Var)
				remap(idx, &t.Const)
				remap(idx, &t.List)
				remap(idx, &t.Struct)
				in.SwT = &t
			case kcmisa.SwitchOnConst, kcmisa.SwitchOnStruct:
				remap(idx, &in.L)
				tbl := append([]kcmisa.SwEntry(nil), in.Sw...)
				for i := range tbl {
					remap(idx, &tbl[i].L)
				}
				in.Sw = tbl
			}
		}
		units = append(units, ui)
	}
	return units, ds
}
