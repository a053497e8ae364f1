package machine

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/kcmisa"
	"repro/internal/word"
)

// bootImage compiles a minimal program so the malformed-load tests
// have a running machine to load into.
func bootImage(t *testing.T) *asm.Image {
	t.Helper()
	c := compiler.New(nil)
	mod := compileModule(t, c, `ok.`)
	im, err := asm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func encode(t *testing.T, ins ...kcmisa.Instr) []word.Word {
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

// wantCodeError asserts the loader surfaced a *CodeError carrying at
// least one finding.
func wantCodeError(t *testing.T, err error) *CodeError {
	t.Helper()
	if err == nil {
		t.Fatal("malformed block loaded without error")
	}
	var ce *CodeError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CodeError", err, err)
	}
	if len(ce.Diags) == 0 {
		t.Fatal("CodeError with no findings")
	}
	return ce
}

func TestLoadDynRejectsOutOfRangeTarget(t *testing.T) {
	m, err := New(bootImage(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	top := m.CodeTop()
	block := encode(t,
		kcmisa.Instr{Op: kcmisa.Jump, L: int(top) + 1000}, // past the block
	)
	_, err = m.LoadDyn(block)
	ce := wantCodeError(t, err)
	if ce.Base != top {
		t.Errorf("CodeError.Base = %d, want %d", ce.Base, top)
	}
	if m.CodeTop() != top {
		t.Errorf("rejected load moved CodeTop: %d -> %d", top, m.CodeTop())
	}
}

func TestLoadDynRejectsTruncatedInstruction(t *testing.T) {
	m, err := New(bootImage(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	full := encode(t, kcmisa.Instr{Op: kcmisa.SwitchOnTerm,
		SwT: &kcmisa.TermSwitch{Var: 0, Const: 0, List: 0, Struct: 0}})
	_, err = m.LoadDyn(full[:2]) // cut mid-instruction
	wantCodeError(t, err)
}

func TestLoadDynRejectsBadOpcode(t *testing.T) {
	m, err := New(bootImage(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.LoadDyn([]word.Word{word.Word(250) << 56})
	wantCodeError(t, err)
}

func TestNewRejectsCorruptImage(t *testing.T) {
	im := bootImage(t)
	im.Code[len(im.Code)-1] = word.Word(250) << 56 // smash an opcode
	if _, err := New(im, Config{}); err == nil {
		t.Fatal("corrupt boot image accepted")
	} else {
		wantCodeError(t, err)
	}
}
