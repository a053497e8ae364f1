package word

import (
	"testing"
	"testing/quick"
)

func TestFieldRoundtrip(t *testing.T) {
	f := func(tp uint8, zn uint8, v uint32) bool {
		ty := Type(tp & 0xF)
		z := Zone(zn & 0xF)
		w := Make(ty, z, v)
		return w.Type() == ty && w.Zone() == z && w.Value() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntRoundtrip(t *testing.T) {
	f := func(v int32) bool {
		w := FromInt(v)
		return w.Type() == TInt && w.Int() == v && w.Zone() == ZNone
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFunctorPacking(t *testing.T) {
	f := func(atom uint32, arity uint8) bool {
		a := atom & 0xFFFFFF
		w := Functor(a, int(arity))
		return w.Type() == TFunc && w.FunctorAtom() == a && w.FunctorArity() == int(arity)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCBits(t *testing.T) {
	w := FromInt(-1) // all value bits set
	for bits := uint8(0); bits < 4; bits++ {
		g := w.WithGC(bits)
		if g.GC() != bits {
			t.Errorf("WithGC(%d).GC() = %d", bits, g.GC())
		}
		if g.Value() != w.Value() || g.Type() != w.Type() {
			t.Errorf("WithGC disturbed value or type")
		}
	}
}

func TestSwappedInvolution(t *testing.T) {
	f := func(v uint64) bool {
		w := Word(v)
		return w.Swapped().Swapped() == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithValue(t *testing.T) {
	w := Make(TList, ZGlobal, 0x1234)
	w2 := w.WithValue(0x9999)
	if w2.Value() != 0x9999 || w2.Type() != TList || w2.Zone() != ZGlobal {
		t.Fatalf("WithValue broke fields: %v", w2)
	}
}

func TestPointerClassification(t *testing.T) {
	ptr := []Type{TRef, TList, TStruct, TDataPtr, TTrailPtr, TEnvPtr, TChpPtr}
	nonPtr := []Type{TAtom, TInt, TFloat, TNil, TFunc, TImm, TSusp, TInvalid, TCodePtr}
	for _, ty := range ptr {
		if !ty.Pointer() {
			t.Errorf("%v should be a pointer type", ty)
		}
	}
	for _, ty := range nonPtr {
		if ty.Pointer() && ty != TCodePtr {
			t.Errorf("%v should not be a data pointer type", ty)
		}
	}
}

func TestSelfReferenceIsUnbound(t *testing.T) {
	r := Ref(ZGlobal, 0x42)
	if !r.IsRef() || r.Addr() != 0x42 || r.Zone() != ZGlobal {
		t.Fatalf("bad ref %v", r)
	}
}

func TestStringForms(t *testing.T) {
	cases := map[Word]string{
		FromInt(42):           "int(42)",
		FromInt(-1):           "int(-1)",
		Nil():                 "[]",
		Functor(3, 2):         "func(#3/2)",
		Ref(ZLocal, 0x10):     "ref(local:0x10)",
		ListPtr(0x20):         "list(global:0x20)",
		DataPtr(ZTrail, 0x30): "dptr(trail:0x30)",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("%#x: got %q, want %q", uint64(w), got, want)
		}
	}
}

func TestZoneAndTypeNames(t *testing.T) {
	if ZGlobal.String() != "global" || ZLocal.String() != "local" {
		t.Error("zone names wrong")
	}
	if TRef.String() != "ref" || TStruct.String() != "struct" {
		t.Error("type names wrong")
	}
}

// TestDataPtrIsMake holds DataPtr, which spells Make out, to Make's
// encoding for every zone byte, in range or not.
func TestDataPtrIsMake(t *testing.T) {
	for z := 0; z < 256; z++ {
		for _, a := range []uint32{0, 0x10020, 0xFFFFFFFF} {
			if got, want := DataPtr(Zone(z), a), Make(TDataPtr, Zone(z), a); got != want {
				t.Fatalf("DataPtr(%d, %#x) = %#x, want %#x", z, a, uint64(got), uint64(want))
			}
		}
	}
}

// TestHashWordsDeterministic pins the image-hash function: stable
// values, order-sensitive, length-sensitive. The two values are those
// of the hash/fnv implementation it replaced.
func TestHashWordsDeterministic(t *testing.T) {
	a := HashWords([]Word{1, 2, 3})
	if a != 0xda2bfb225e0d1f05 {
		t.Fatalf("HashWords({1,2,3}) = %#x, want 0xda2bfb225e0d1f05", a)
	}
	if got := HashWords(nil); got != 0xcbf29ce484222325 {
		t.Fatalf("HashWords(nil) = %#x, want the FNV-1a offset basis", got)
	}
	if a == HashWords([]Word{3, 2, 1}) {
		t.Fatal("hash not order-sensitive")
	}
	if a == HashWords([]Word{1, 2}) {
		t.Fatal("hash not length-sensitive")
	}
}
