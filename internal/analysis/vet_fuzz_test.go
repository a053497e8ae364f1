package analysis

import (
	"testing"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

// FuzzVetEncoded throws arbitrary code words, with entry points
// scattered across the block, at the encoded-image verifier, so that
// partitionEncoded meets entries off instruction boundaries and labels
// that leave their predicate. The property is robustness: no panic.
func FuzzVetEncoded(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	seed := func(ins ...kcmisa.Instr) []byte {
		var out []byte
		for _, in := range ins {
			ws, err := kcmisa.Encode(in)
			if err != nil {
				continue
			}
			for _, w := range ws {
				for i := 0; i < 8; i++ {
					out = append(out, byte(uint64(w)>>(8*i)))
				}
			}
		}
		return out
	}
	f.Add(seed(
		kcmisa.Instr{Op: kcmisa.PutConst, R2: 1, K: word.FromInt(1)},
		kcmisa.Instr{Op: kcmisa.Call, L: 3, N: 1},
		kcmisa.Instr{Op: kcmisa.Proceed},
		kcmisa.Instr{Op: kcmisa.GetConst, R2: 1, K: word.FromInt(1)},
		kcmisa.Instr{Op: kcmisa.Proceed},
	), uint8(2))
	f.Add(seed(
		kcmisa.Instr{Op: kcmisa.TryMeElse, L: 2, N: 0},
		kcmisa.Instr{Op: kcmisa.Jump, L: 0},
		kcmisa.Instr{Op: kcmisa.TrustMe},
		kcmisa.Instr{Op: kcmisa.Builtin, N: kcmisa.BICall},
		kcmisa.Instr{Op: kcmisa.HaltFail},
	), uint8(3))

	f.Fuzz(func(t *testing.T, raw []byte, nPreds uint8) {
		code := make([]word.Word, len(raw)/8)
		for i := range code {
			var w uint64
			for b := 0; b < 8; b++ {
				w |= uint64(raw[i*8+b]) << (8 * b)
			}
			code[i] = word.Word(w)
		}
		if len(code) > 512 {
			code = code[:512]
		}
		// Scatter entry points across the block.
		entries := map[term.Indicator]uint32{}
		n := int(nPreds%8) + 1
		for i := 0; i < n && i < len(code); i++ {
			entries[term.Ind(term.Atom(string(rune('a'+i))), i%4)] =
				uint32(i * len(code) / n)
		}
		VetEncoded(code, 0, entries)
	})
}
