package analysis

import (
	"fmt"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

// encInstr is one decoded instruction with its code-space address.
type encInstr struct {
	in   kcmisa.Instr
	addr uint32
}

// decodeAll walks an encoded code block, decoding instruction by
// instruction. An undefined opcode resynchronises one word later; a
// multi-word instruction whose operand words run past the block ends
// the walk (decoding the tail would read out of bounds).
func decodeAll(code []word.Word, base uint32) ([]encInstr, []Diag) {
	fetch := func(a uint32) word.Word {
		i := int(a) - int(base)
		if i < 0 || i >= len(code) {
			return 0
		}
		return code[i]
	}
	var (
		out []encInstr
		ds  []Diag
	)
	end := base + uint32(len(code))
	diag := func(a uint32, c Check, format string, args ...any) {
		u := Unit{Addr: func(int) uint32 { return a }}
		ds = append(ds, u.diag(len(out), c, format, args...))
	}
	for a := base; a < end; {
		op := kcmisa.Op(fetch(a) >> 56)
		if op >= kcmisa.NumOps {
			diag(a, BadOpcode, "undefined opcode %d at %d", uint8(op), a)
			a++
			continue
		}
		in, n := kcmisa.Decode(fetch, a)
		if a+uint32(n) > end {
			diag(a, Truncated,
				"%v at %d needs %d words but only %d remain", in.Op, a, n, end-a)
			return out, ds
		}
		out = append(out, encInstr{in: in, addr: a})
		a += uint32(n)
	}
	return out, ds
}

// CheckEncoded is the loader-grade validation of an encoded code
// block about to be placed at base: every instruction decodes, no
// multi-word instruction is truncated, and every branch or call
// target lands either in already loaded code (below codeTop) or on an
// instruction boundary of the new block. A gap [codeTop, base) between
// the loaded code and the block is unmapped and therefore invalid.
func CheckEncoded(code []word.Word, base, codeTop uint32) []Diag {
	end := base + uint32(len(code))
	return checkBlock(code, base, func(t int, start []bool) string {
		a := uint32(t)
		switch {
		case t < 0 || a >= end:
			return fmt.Sprintf(", outside loaded code [0,%d)", end)
		case a < codeTop:
			// Existing code: trusted (validated when it was loaded).
		case a < base:
			return fmt.Sprintf(" in the unmapped gap [%d,%d)", codeTop, base)
		case !start[a-base]:
			return ", not an instruction boundary"
		}
		return ""
	})
}

// CheckPatched validates a code block about to overwrite part of the
// already-loaded code space at base (an in-place hot patch). The
// rules differ from CheckEncoded's append-only load: a target inside
// the patched range [base, base+len) must be an instruction boundary
// of the new block, while a target anywhere else in the loaded space
// [0, codeTop) is trusted — the patch may legitimately branch into,
// or be branched into from, surrounding code.
func CheckPatched(code []word.Word, base, codeTop uint32) []Diag {
	end := base + uint32(len(code))
	return checkBlock(code, base, func(t int, start []bool) string {
		a := uint32(t)
		switch {
		case t < 0 || a >= codeTop:
			return fmt.Sprintf(", outside loaded code [0,%d)", codeTop)
		case a >= base && a < end && !start[a-base]:
			return ", not an instruction boundary of the patch"
		}
		return ""
	})
}

// checkBlock is the walk CheckEncoded and CheckPatched share. It runs
// on every load, so it builds no instruction list: two passes decode
// the block into one reused Instr under decodeAll's rules, the first
// reporting decode faults and marking instruction starts, the second
// passing every code-address operand (call targets included) to bad,
// which returns the tail of the diagnostic for an invalid target or
// "". What it allocates does not grow with the number of
// instructions.
func checkBlock(code []word.Word, base uint32, bad func(t int, start []bool) string) []Diag {
	fetch := func(a uint32) word.Word {
		i := int(a) - int(base)
		if i < 0 || i >= len(code) {
			return 0
		}
		return code[i]
	}
	end := base + uint32(len(code))
	start := make([]bool, len(code))
	var (
		ds []Diag
		in kcmisa.Instr
		ts []int // reused across instructions
		// DecodeInto reuses the switch-table storage it finds in its
		// target but drops it on any other opcode, so keep it here.
		sw  []kcmisa.SwEntry
		swt *kcmisa.TermSwitch
	)
	for pass := 0; pass < 2; pass++ {
		idx := 0
		for a := base; a < end; {
			if op := kcmisa.Op(fetch(a) >> 56); op >= kcmisa.NumOps {
				if pass == 0 {
					ds = append(ds, Diag{Index: idx, Addr: a, Check: BadOpcode,
						Msg: fmt.Sprintf("undefined opcode %d at %d", uint8(op), a)})
				}
				a++
				continue
			}
			in.Sw, in.SwT = sw, swt
			n := kcmisa.DecodeInto(fetch, a, &in)
			if in.Sw != nil {
				sw = in.Sw
			}
			if in.SwT != nil {
				swt = in.SwT
			}
			if a+uint32(n) > end {
				if pass == 0 {
					ds = append(ds, Diag{Index: idx, Addr: a, Check: Truncated,
						Msg: fmt.Sprintf("%v at %d needs %d words but only %d remain", in.Op, a, n, end-a)})
				}
				break
			}
			if pass == 0 {
				start[a-base] = true
			} else {
				ts = appendTargets(ts[:0], &in)
				if in.Op == kcmisa.Call || in.Op == kcmisa.Execute {
					ts = append(ts, in.L)
				}
				for _, t := range ts {
					if t == kcmisa.FailLabel {
						continue
					}
					if msg := bad(t, start); msg != "" {
						ds = append(ds, Diag{Index: idx, Addr: a, Check: BadTarget,
							Msg: fmt.Sprintf("%v at %d targets %d%s", in.Op, a, t, msg)})
					}
				}
			}
			idx++
			a += uint32(n)
		}
	}
	return ds
}

// VetEncoded runs the full flow analysis over a linked image: the
// code block is partitioned into predicates by the entry table, each
// predicate's labels are remapped back to instruction indices, and
// every predicate is analyzed as a Unit. Words before the first entry
// (the bootstrap preamble) get structural checks only. Call and
// execute targets must name an entry or land below base (code linked
// earlier against an external entry table).
func VetEncoded(code []word.Word, base uint32, entries map[term.Indicator]uint32) []Diag {
	if _, ds := decodeAll(code, base); len(ds) > 0 {
		return ds
	}
	units, ds := partitionEncoded(code, base, entries)
	callOK := func(t int) bool {
		if t >= 0 && uint32(t) < base {
			return true
		}
		for _, a := range entries {
			if uint32(t) == a {
				return true
			}
		}
		return false
	}
	for i := range units {
		ui := &units[i]
		u := ui.unit()
		bad := ui.bad
		for idx := range ui.instrs {
			in := &ui.instrs[idx]
			if in.Op != kcmisa.Call && in.Op != kcmisa.Execute {
				continue
			}
			if !callOK(in.L) {
				ds = append(ds, u.diag(idx, BadTarget,
					"%v targets %d, which is no entry point", in.Op, in.L))
				bad = true
			}
			in.L = 0 // out of scope for intra-unit analysis
		}
		if bad {
			continue
		}
		ds = append(ds, u.Analyze()...)
	}
	return ds
}
