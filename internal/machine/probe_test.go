package machine

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/word"
)

// TestProbeWindowMatchesCheck holds the probe tables to the full zone
// check: for split and unified data caches, every type and zone byte,
// reads and writes, and the edges of every zone plus the implemented
// address limit, a window passes exactly when mmu.Check returns nil.
// Bits the check ignores (32..47 and the GC bits) must not sway the
// window either.
func TestProbeWindowMatchesCheck(t *testing.T) {
	im := buildImage(t, "p.", "p.")
	for _, split := range []bool{true, false} {
		m, err := New(im, Config{SplitDataCache: &split})
		if err != nil {
			t.Fatal(err)
		}
		// A write-protected zone, and one whose limit reaches past the
		// 28 implemented address bits.
		m.dmmu.SetZone(word.ZStatic, mmu.Zone{
			Start: 0x3000, End: 0x4000,
			AllowedTypes: mmu.TypeMask(word.TDataPtr), WriteProtect: true,
		})
		m.dmmu.SetZone(word.ZFree, mmu.Zone{Start: 1<<28 - 0x100, End: 1<<28 + 0x100, AllowedTypes: 0xFFFF})
		m.setProbe()
		c := m.cfg
		addrs := []uint32{1<<28 - 1, 1 << 28}
		for _, z := range [][2]uint32{
			{c.GlobalBase, c.GlobalBase + c.GlobalSize},
			{c.LocalBase, c.LocalBase + c.LocalSize},
			{c.ChoiceBase, c.ChoiceBase + c.ChoiceSize},
			{c.TrailBase, c.TrailBase + c.TrailSize},
			{0x3000, 0x4000},
			{1<<28 - 0x100, 1<<28 + 0x100},
		} {
			addrs = append(addrs, z[0]-1, z[0], z[1]-1, z[1])
		}
		passed := 0
		for tz := 0; tz < 256; tz++ {
			for _, a := range addrs {
				for _, junk := range []uint64{0, 0x0300_FFFF_0000_0000} {
					addr := word.Word(uint64(tz)<<48 | uint64(a) | junk)
					for _, write := range []bool{false, true} {
						e := &m.rwin[tz]
						if write {
							e = &m.wwin[tz]
						}
						got := a-e.lo < e.span
						want := m.dmmu.Check(addr, write) == nil
						if got != want {
							t.Errorf("split=%v %v write=%v: window passes=%v, Check passes=%v", split, addr, write, got, want)
						}
						if got {
							passed++
						}
					}
				}
			}
		}
		if passed == 0 {
			t.Fatalf("split=%v: no address passed; the table is empty", split)
		}
	}
}
