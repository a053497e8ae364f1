// Package word defines the KCM 64-bit tagged data word.
//
// A KCM word holds a 32-bit value part (bits 31..0) and a 32-bit tag
// part (bits 63..32). Inside the tag, bits 51..48 encode one of 16
// data types, bits 55..52 encode the virtual-memory zone the value
// points into (when the word is used as an address), and bits 57..56
// are reserved for the garbage collector. The remaining tag bits are
// unused by the current architecture, exactly as in the paper
// (figures 2 and 7).
package word

import "fmt"

// Word is one 64-bit KCM entity: either a data word (tag + value) or
// an encoded instruction. All addresses in KCM are word addresses.
type Word uint64

// Field positions inside a data word.
const (
	typeShift = 48
	typeMask  = 0xF
	zoneShift = 52
	zoneMask  = 0xF
	gcShift   = 56
	gcMask    = 0x3
	valueMask = 0xFFFFFFFF
)

// Type is the 4-bit data type stored in bits 51..48 of the tag part.
type Type uint8

// The 16 KCM data types. The paper names integer, floating point,
// variable (reference), list, data pointer and code pointer
// explicitly; the rest complete the set used by the SEPIA-derived
// run-time system.
const (
	TRef      Type = iota // unbound variable / reference chain link
	TAtom                 // atomic constant (interned symbol)
	TInt                  // 32-bit signed integer
	TFloat                // 32-bit IEEE float
	TNil                  // empty list []
	TList                 // pointer to a cons cell (two words) on the global stack
	TStruct               // pointer to a functor word followed by the arguments
	TFunc                 // functor word: atom index + arity packed in the value
	TDataPtr              // untyped data pointer (stack maintenance, saved registers)
	TCodePtr              // pointer into code space (continuations, alternatives)
	TTrailPtr             // saved trail pointer inside choice points
	TEnvPtr               // saved environment pointer inside frames
	TChpPtr               // saved choice-point pointer
	TImm                  // raw immediate used by the microcode (counts, flags)
	TSusp                 // suspension (coroutining hook; unused by the benchmarks)
	TInvalid              // trap value: dereferencing or addressing it faults
)

var typeNames = [16]string{
	"ref", "atom", "int", "float", "nil", "list", "struct", "func",
	"dptr", "cptr", "trptr", "eptr", "bptr", "imm", "susp", "invalid",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Pointer reports whether a word of this type carries a data-space
// address in its value part.
func (t Type) Pointer() bool {
	switch t {
	case TRef, TList, TStruct, TDataPtr, TTrailPtr, TEnvPtr, TChpPtr:
		return true
	}
	return false
}

// Zone is the 4-bit virtual-memory zone stored in bits 55..52.
// Stacks, heaps and other data areas are mapped to zones; the
// zone-check unit verifies that an address of zone z actually points
// between the configured minimum and maximum address of z.
type Zone uint8

// The zones used by the KCM run-time system. ZNone marks non-address
// data (integers, atoms...).
const (
	ZNone   Zone = iota
	ZGlobal      // global stack: lists, structures, heap variables
	ZLocal       // local stack: environments
	ZChoice      // choice-point stack (split-stack model)
	ZTrail       // trail stack
	ZStatic      // static data area (compiled literals, tables)
	ZCode        // code space (separate address space)
	ZFree        // unmapped
)

var zoneNames = [8]string{"none", "global", "local", "choice", "trail", "static", "code", "free"}

func (z Zone) String() string {
	if int(z) < len(zoneNames) {
		return zoneNames[z]
	}
	return fmt.Sprintf("zone(%d)", uint8(z))
}

// Make builds a data word from a type, a zone and a 32-bit value.
func Make(t Type, z Zone, v uint32) Word {
	return Word(uint64(v) | uint64(t&typeMask)<<typeShift | uint64(z&zoneMask)<<zoneShift)
}

// Type extracts the 4-bit data type (bits 51..48).
func (w Word) Type() Type { return Type(w >> typeShift & typeMask) }

// Zone extracts the 4-bit zone field (bits 55..52).
func (w Word) Zone() Zone { return Zone(w >> zoneShift & zoneMask) }

// Value extracts the 32-bit value part (bits 31..0).
func (w Word) Value() uint32 { return uint32(w & valueMask) }

// The two GC bits (bits 57..56) as used by the heap collector
// (internal/gc): GCMark flags a live cell during the mark phase, and
// GCLink additionally flags a cell that temporarily holds a
// pointer-reversal link instead of its own contents. Outside a
// collection every cell has both bits clear.
const (
	GCMark uint8 = 1 << 0
	GCLink uint8 = 1 << 1
)

// GC extracts the two garbage-collection bits (bits 57..56).
func (w Word) GC() uint8 { return uint8(w >> gcShift & gcMask) }

// Marked reports whether the GCMark bit is set.
func (w Word) Marked() bool { return w.GC()&GCMark != 0 }

// WithGC returns the word with its GC bits replaced. The TVM
// (tag-value multiplexer) performs this in hardware.
func (w Word) WithGC(bits uint8) Word {
	return w&^(gcMask<<gcShift) | Word(bits&gcMask)<<gcShift
}

// WithValue returns the word with its value part replaced.
func (w Word) WithValue(v uint32) Word {
	return w&^valueMask | Word(v)
}

// Swapped exchanges the tag and value halves of the word, one of the
// TVM's 64-bit operations.
func (w Word) Swapped() Word { return w<<32 | w>>32 }

// Int interprets the value part as a signed 32-bit integer.
func (w Word) Int() int32 { return int32(w.Value()) }

// Addr interprets the value part as a word address. Only the 28 least
// significant bits are used by the current implementation of the
// architecture; the upper 4 bits must be zero (checked by the
// zone-check unit, not here).
func (w Word) Addr() uint32 { return w.Value() }

// IsRef reports whether the word is a reference (possibly unbound).
func (w Word) IsRef() bool { return w.Type() == TRef }

// Convenience constructors for the run-time system.

// FromInt builds an integer data word.
func FromInt(v int32) Word { return Make(TInt, ZNone, uint32(v)) }

// FromFloat builds a 32-bit IEEE float data word. The bits are the
// raw IEEE-754 single encoding, as handled by the KCM FPU.
func FromFloat(bits uint32) Word { return Make(TFloat, ZNone, bits) }

// FromAtom builds an atomic-constant word from an interned atom index.
func FromAtom(idx uint32) Word { return Make(TAtom, ZNone, idx) }

// Nil is the empty-list constant.
func Nil() Word { return Make(TNil, ZNone, 0) }

// Ref builds a reference into zone z at address a. An unbound
// variable is a reference pointing to itself.
func Ref(z Zone, a uint32) Word { return Make(TRef, z, a) }

// ListPtr builds a list pointer to a cons cell at address a on the
// global stack.
func ListPtr(a uint32) Word { return Make(TList, ZGlobal, a) }

// StructPtr builds a structure pointer to the functor word at a.
func StructPtr(a uint32) Word { return Make(TStruct, ZGlobal, a) }

// Functor packs an atom index and an arity into a functor word. The
// arity occupies the low 8 bits of the value, the atom index the
// remaining 24, so up to 16M distinct symbols and arity 255.
func Functor(atom uint32, arity int) Word {
	return Make(TFunc, ZNone, atom<<8|uint32(arity)&0xFF)
}

// FunctorAtom extracts the atom index of a functor word.
func (w Word) FunctorAtom() uint32 { return w.Value() >> 8 }

// FunctorArity extracts the arity of a functor word.
func (w Word) FunctorArity() int { return int(w.Value() & 0xFF) }

// CodePtr builds a code-space pointer (continuation, alternative...).
func CodePtr(a uint32) Word { return Make(TCodePtr, ZCode, a) }

// DataPtr builds an untyped data pointer into zone z. It is Make
// spelled out: the machine builds one per zone-addressed access, and
// one inlining level fewer keeps its access helpers inlinable.
func DataPtr(z Zone, a uint32) Word {
	return Word(uint64(a) | uint64(TDataPtr)<<typeShift | uint64(z&zoneMask)<<zoneShift)
}

// Invalid returns the trap word written into freshly popped or
// protected cells when the machine runs with debug scrubbing on.
func Invalid() Word { return Make(TInvalid, ZNone, 0xDEAD) }

func (w Word) String() string {
	t := w.Type()
	switch t {
	case TInt:
		return fmt.Sprintf("int(%d)", w.Int())
	case TAtom:
		return fmt.Sprintf("atom(#%d)", w.Value())
	case TNil:
		return "[]"
	case TFunc:
		return fmt.Sprintf("func(#%d/%d)", w.FunctorAtom(), w.FunctorArity())
	case TFloat:
		return fmt.Sprintf("float(0x%08x)", w.Value())
	default:
		if t.Pointer() {
			return fmt.Sprintf("%s(%s:%#x)", t, w.Zone(), w.Value())
		}
		return fmt.Sprintf("%s(%#x)", t, w.Value())
	}
}

// HashWords is the content hash of a word sequence: 64-bit FNV-1a over
// the little-endian bytes of each word. Snapshots carry it as the code
// image's identity and the verifier keys its verdict cache with it, so
// its values must never change: every parked blob holds one.
func HashWords(ws []Word) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range ws {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(w) >> shift & 0xFF
			h *= prime
		}
	}
	return h
}
