package cache

import (
	"testing"

	"repro/internal/word"
)

// fakeBack is a Backing over a map with fixed costs.
type fakeBack struct {
	data   map[uint32]word.Word
	rc, wc int
	reads  int
	writes int
}

func newBack() *fakeBack {
	return &fakeBack{data: map[uint32]word.Word{}, rc: 4, wc: 4}
}

func (b *fakeBack) Read(va uint32) (word.Word, int, error) {
	b.reads++
	return b.data[va], b.rc, nil
}

func (b *fakeBack) Write(va uint32, w word.Word) (int, error) {
	b.writes++
	b.data[va] = w
	return b.wc, nil
}

func newData(back Backing, split bool) *Data {
	c := new(Data)
	c.Init(back, split)
	return c
}

func newCode(back Backing) *Code {
	c := new(Code)
	c.Init(back)
	return c
}

func TestDataReadMissThenHit(t *testing.T) {
	b := newBack()
	b.data[100] = word.FromInt(7)
	c := newData(b, true)
	w, cost, err := c.Read(100, word.ZGlobal)
	if err != nil || w.Int() != 7 {
		t.Fatalf("read: %v %v", w, err)
	}
	if cost != 4 {
		t.Fatalf("miss cost %d", cost)
	}
	_, cost, _ = c.Read(100, word.ZGlobal)
	if cost != 0 {
		t.Fatalf("hit cost %d", cost)
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadMiss != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDataCopyBack(t *testing.T) {
	b := newBack()
	c := newData(b, true)
	// A write stays in the cache until evicted.
	c.Write(5, word.ZGlobal, word.FromInt(1))
	if b.writes != 0 {
		t.Fatal("write-through behaviour in a copy-back cache")
	}
	// Evict by touching the conflicting index (same section, +8K).
	c.Write(5+8*1024, word.ZGlobal, word.FromInt(2))
	if b.writes != 1 {
		t.Fatalf("dirty eviction did not reach memory (%d writes)", b.writes)
	}
	if got := b.data[5]; got.Int() != 1 {
		t.Fatalf("memory got %v", got)
	}
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("writebacks %d", c.Stats().WriteBacks)
	}
}

func TestSplitPreventsZoneCollisions(t *testing.T) {
	b := newBack()
	split := newData(b, true)
	// Same index in two zones: both stay resident in a split cache.
	split.Write(0x100, word.ZGlobal, word.FromInt(1))
	split.Write(0x100, word.ZLocal, word.FromInt(2))
	if w, _, _ := split.Read(0x100, word.ZGlobal); w.Int() != 1 {
		t.Fatal("global line evicted in split cache")
	}
	if split.Stats().ReadMiss != 0 {
		t.Fatalf("split cache missed: %+v", split.Stats())
	}

	uni := newData(newBack(), false)
	uni.Write(0x100, word.ZGlobal, word.FromInt(1))
	uni.Write(0x100, word.ZLocal, word.FromInt(2)) // same index: evicts
	uni.Read(0x100, word.ZGlobal)
	if uni.Stats().ReadMiss != 1 {
		t.Fatalf("unified cache should collide: %+v", uni.Stats())
	}
}

func TestDataPeek(t *testing.T) {
	c := newData(newBack(), true)
	if _, ok := c.Peek(9, word.ZGlobal); ok {
		t.Fatal("peek hit on empty cache")
	}
	c.Write(9, word.ZGlobal, word.FromInt(3))
	w, ok := c.Peek(9, word.ZGlobal)
	if !ok || w.Int() != 3 {
		t.Fatalf("peek %v %v", w, ok)
	}
	if c.Stats().Reads != 0 {
		t.Fatal("peek counted as a read")
	}
}

// TestCodePrefetch: the code cache prefetches nothing. A miss fills
// exactly the line it missed on, so the next sequential word misses
// too; every pinned table was computed this way.
func TestCodePrefetch(t *testing.T) {
	b := newBack()
	for i := uint32(0); i < 64; i++ {
		b.data[i] = word.Word(i)
	}
	c := newCode(b)
	c.Read(0)
	if _, cost, _ := c.Read(1); cost == 0 {
		t.Fatal("word 1 cached after a miss on word 0")
	}
	if s := c.Stats(); s.ReadMiss != 2 || b.reads != 2 {
		t.Fatalf("misses %d, backing reads %d; want 2 each (one line per miss)", s.ReadMiss, b.reads)
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 1 {
		t.Fatal("empty stats should report ratio 1")
	}
	s = Stats{Reads: 8, Writes: 2, ReadMiss: 1, WriteMiss: 1}
	if got := s.HitRatio(); got != 0.8 {
		t.Fatalf("ratio %v", got)
	}
	if s.Hits() != 8 {
		t.Fatalf("hits %d", s.Hits())
	}
}

// TestSlotHits holds Slot to the layout Read and Write use: for split
// and unified caches, the line a full Write filled is found at its
// zone's Base|va&Mask under tag Key|va, while another zone's slot or
// another address misses, and a miss counts nothing.
func TestSlotHits(t *testing.T) {
	for _, split := range []bool{true, false} {
		c := newData(newBack(), split)
		for z := word.Zone(0); z < 16; z++ {
			va := 0x400000 + uint32(z)*3
			if _, err := c.Write(va, z, word.FromInt(int32(z))); err != nil {
				t.Fatal(err)
			}
			s, o := c.Slot(z), c.Slot(z^1)
			if w, ok := c.ReadHit(s.Base|va&s.Mask, s.Key|uint64(va)); !ok || w != word.FromInt(int32(z)) {
				t.Errorf("split=%v zone %d: ReadHit = %v, %v after Write", split, z, w, ok)
			}
			if _, ok := c.ReadHit(o.Base|va&o.Mask, o.Key|uint64(va)); ok {
				t.Errorf("split=%v zone %d: hit under zone %d's tag", split, z, z^1)
			}
			if c.WriteHit(s.Base|(va+1)&s.Mask, s.Key|uint64(va+1), 0) {
				t.Errorf("split=%v zone %d: WriteHit of an address never written", split, z)
			}
		}
		if st := c.Stats(); st.Reads != 16 || st.Writes != 16 || st.ReadMiss != 0 {
			t.Errorf("split=%v: stats %+v, want 16 reads (the hits), 16 writes, no read miss", split, st)
		}
	}
}
