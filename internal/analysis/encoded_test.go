package analysis

import (
	"testing"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

func enc(t *testing.T, ins ...kcmisa.Instr) []word.Word {
	t.Helper()
	var out []word.Word
	for _, in := range ins {
		ws, err := kcmisa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		out = append(out, ws...)
	}
	return out
}

func TestCheckEncodedClean(t *testing.T) {
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.Jump, L: 101},
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	if ds := CheckEncoded(code, 100, 100); len(ds) != 0 {
		t.Fatalf("clean block reported: %s", diagString(ds))
	}
}

func TestCheckEncodedBadOpcode(t *testing.T) {
	code := []word.Word{word.Word(250) << 56}
	ds := CheckEncoded(code, 0, 0)
	if !findCheck(ds, BadOpcode) {
		t.Fatalf("want bad opcode, got: %s", diagString(ds))
	}
}

func TestCheckEncodedTruncated(t *testing.T) {
	full := enc(t, kcmisa.Instr{Op: kcmisa.SwitchOnTerm,
		SwT: &kcmisa.TermSwitch{Var: 0, Const: 0, List: 0, Struct: 0}})
	if len(full) != 4 {
		t.Fatalf("switch_on_term should be 4 words, got %d", len(full))
	}
	ds := CheckEncoded(full[:2], 0, 0)
	if !findCheck(ds, Truncated) {
		t.Fatalf("want truncated, got: %s", diagString(ds))
	}
}

func TestCheckEncodedOutOfRangeTarget(t *testing.T) {
	code := enc(t, kcmisa.Instr{Op: kcmisa.Jump, L: 500})
	ds := CheckEncoded(code, 100, 100)
	if !findCheck(ds, BadTarget) {
		t.Fatalf("want bad target, got: %s", diagString(ds))
	}
}

func TestCheckEncodedGapTarget(t *testing.T) {
	// A page-rounded batch load leaves [codeTop, base) unmapped.
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.Jump, L: 75},
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	ds := CheckEncoded(code, 100, 50)
	if !findCheck(ds, BadTarget) {
		t.Fatalf("want bad target into gap, got: %s", diagString(ds))
	}
}

func TestCheckEncodedMidInstructionTarget(t *testing.T) {
	// Jump into the operand words of a switch table.
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.SwitchOnTerm,
			SwT: &kcmisa.TermSwitch{Var: 104, Const: 104, List: 104, Struct: 104}},
		kcmisa.Instr{Op: kcmisa.Jump, L: 102}, // 102 is a switch operand word
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	ds := CheckEncoded(code, 100, 100)
	if !findCheck(ds, BadTarget) {
		t.Fatalf("want bad target at non-boundary, got: %s", diagString(ds))
	}
}

func TestCheckEncodedAcceptsPriorCodeTargets(t *testing.T) {
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.Execute, N: 1, L: 7}, // 7 < codeTop: trusted
	)
	if ds := CheckEncoded(code, 100, 100); len(ds) != 0 {
		t.Fatalf("prior-code target flagged: %s", diagString(ds))
	}
}

// TestCheckEncodedAllocsFlat pins the loader check's allocation count
// to a constant: the dynamic database re-verifies its whole code tail
// on every tenant switch, so allocations that grow with the block
// size (an instruction list, a boundary map) would be paid per lease.
func TestCheckEncodedAllocsFlat(t *testing.T) {
	const base = 100
	block := func(words int) []word.Word {
		var ins []kcmisa.Instr
		for a := base; a+4 < base+words; a += 5 {
			ins = append(ins,
				kcmisa.Instr{Op: kcmisa.SwitchOnTerm,
					SwT: &kcmisa.TermSwitch{Var: a + 4, Const: a, List: kcmisa.FailLabel, Struct: a + 4}},
				kcmisa.Instr{Op: kcmisa.Proceed})
		}
		code := enc(t, ins...)
		for len(code) < words {
			code = append(code, enc(t, kcmisa.Instr{Op: kcmisa.Call, N: 1, L: 7})...)
		}
		return code
	}
	allocs := func(code []word.Word) float64 {
		if ds := CheckEncoded(code, base, base); len(ds) != 0 {
			t.Fatalf("%d-word block reported: %s", len(code), diagString(ds))
		}
		return testing.AllocsPerRun(20, func() { CheckEncoded(code, base, base) })
	}
	small, large := allocs(block(1000)), allocs(block(10000))
	if small != large {
		t.Fatalf("CheckEncoded allocs grow with the block: %v for 1k words, %v for 10k", small, large)
	}
}

func TestVetEncodedFindsFlowError(t *testing.T) {
	// A linked predicate whose body reads X5 before defining it: the
	// structural loader check accepts it, the flow vet must not.
	base := uint32(1)
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.PutValX, R1: 5, R2: 1},
		kcmisa.Instr{Op: kcmisa.Proceed},
	)
	pi := term.Ind("t", 1)
	ds := VetEncoded(code, base, map[term.Indicator]uint32{pi: base})
	if !findCheck(ds, UseBeforeDef) {
		t.Fatalf("want use-before-def, got: %s", diagString(ds))
	}
	for _, d := range ds {
		if d.Check == UseBeforeDef {
			if d.Unit != pi {
				t.Errorf("diag unit = %v, want %v", d.Unit, pi)
			}
			if d.Addr != base {
				t.Errorf("diag addr = %d, want %d", d.Addr, base)
			}
		}
	}
}

func TestVetEncodedCleanPredicate(t *testing.T) {
	base := uint32(1)
	pi := term.Ind("t", 1)
	code := enc(t,
		kcmisa.Instr{Op: kcmisa.GetVarX, R1: 5, R2: 1},
		kcmisa.Instr{Op: kcmisa.PutValX, R1: 5, R2: 1},
		kcmisa.Instr{Op: kcmisa.Execute, N: 1, L: int(base)}, // self-call
	)
	ds := VetEncoded(code, base, map[term.Indicator]uint32{pi: base})
	if len(ds) != 0 {
		t.Fatalf("clean predicate reported: %s", diagString(ds))
	}
}
