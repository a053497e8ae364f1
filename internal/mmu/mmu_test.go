package mmu

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/word"
)

func newMMU(t *testing.T) *MMU {
	t.Helper()
	u := new(MMU)
	u.Init(mem.New(8*PageWords), nil)
	return u
}

func TestDemandPaging(t *testing.T) {
	u := newMMU(t)
	pa1, err := u.Translate(0)
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := u.Translate(PageWords) // next virtual page
	if err != nil {
		t.Fatal(err)
	}
	if pa1>>PageBits == pa2>>PageBits {
		t.Fatal("two virtual pages share a frame")
	}
	// Same page translates consistently.
	pa3, _ := u.Translate(5)
	if pa3 != pa1+5 {
		t.Fatalf("offset broken: %#x vs %#x", pa3, pa1+5)
	}
	if u.Stats().PageFaults != 2 {
		t.Fatalf("page faults %d", u.Stats().PageFaults)
	}
	if u.MappedPages() != 2 {
		t.Fatalf("mapped %d", u.MappedPages())
	}
}

func TestOutOfPhysicalMemory(t *testing.T) {
	u := new(MMU)
	u.Init(mem.New(2*PageWords), nil)
	if _, err := u.Translate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(PageWords); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(2 * PageWords); err == nil {
		t.Fatal("third page should exhaust memory")
	}
}

func TestReadWriteThrough(t *testing.T) {
	u := newMMU(t)
	if _, err := u.Write(123, word.FromInt(9)); err != nil {
		t.Fatal(err)
	}
	w, _, err := u.Read(123)
	if err != nil || w.Int() != 9 {
		t.Fatalf("read %v %v", w, err)
	}
}

func TestPeek(t *testing.T) {
	u := newMMU(t)
	if _, ok := u.Peek(0); ok {
		t.Fatal("peek must not demand-allocate")
	}
	u.Translate(0)
	if _, ok := u.Peek(0); !ok {
		t.Fatal("peek misses mapped page")
	}
}

func TestZoneCheck(t *testing.T) {
	u := newMMU(t)
	u.SetZone(word.ZGlobal, Zone{
		Start: 0x1000, End: 0x2000,
		AllowedTypes: TypeMask(word.TRef, word.TList),
	})
	u.SetZone(word.ZStatic, Zone{
		Start: 0x3000, End: 0x4000,
		AllowedTypes: TypeMask(word.TDataPtr),
		WriteProtect: true,
	})

	ok := []word.Word{
		word.Ref(word.ZGlobal, 0x1000),
		word.ListPtr(0x1FFF),
	}
	for _, a := range ok {
		if err := u.Check(a, false); err != nil {
			t.Errorf("Check(%v) = %v, want nil", a, err)
		}
	}

	cases := []struct {
		a     word.Word
		write bool
		want  string
	}{
		// A float used as an address: the example from the paper.
		{word.Make(word.TFloat, word.ZGlobal, 0x1100), false, "not allowed"},
		// Out of the zone's limits.
		{word.Ref(word.ZGlobal, 0x2000), false, "outside zone"},
		{word.Ref(word.ZGlobal, 0x0FFF), false, "outside zone"},
		// Unmapped zone.
		{word.Ref(word.ZTrail, 0x1000), false, "unmapped zone"},
		// Unimplemented address bits (top 4 bits of the value).
		{word.Ref(word.ZGlobal, 0xF0001000), false, "unimplemented"},
		// Write protection.
		{word.DataPtr(word.ZStatic, 0x3000), true, "write-protected"},
	}
	for _, c := range cases {
		err := u.Check(c.a, c.write)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%v, write=%v) = %v, want %q", c.a, c.write, err, c.want)
		}
	}
	if u.Stats().ZoneTraps != uint64(len(cases)) {
		t.Errorf("trap count %d, want %d", u.Stats().ZoneTraps, len(cases))
	}
	// Reads within the write-protected zone are fine.
	if err := u.Check(word.DataPtr(word.ZStatic, 0x3000), false); err != nil {
		t.Errorf("read of protected zone: %v", err)
	}
}

func TestZoneLimitsChangeDynamically(t *testing.T) {
	u := newMMU(t)
	u.SetZone(word.ZLocal, Zone{Start: 0, End: 0x100, AllowedTypes: TypeMask(word.TRef)})
	a := word.Ref(word.ZLocal, 0x180)
	if err := u.Check(a, false); err == nil {
		t.Fatal("address beyond limit must trap")
	}
	// Grow the zone (the run-time system does this on stack expansion).
	u.SetZone(word.ZLocal, Zone{Start: 0, End: 0x200, AllowedTypes: TypeMask(word.TRef)})
	if err := u.Check(a, false); err != nil {
		t.Fatalf("after growing the zone: %v", err)
	}
}
