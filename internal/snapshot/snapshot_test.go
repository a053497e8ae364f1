package snapshot

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/word"
)

// sample builds a State with every section populated, so the
// round-trip test exercises each encoder branch.
func sample() *State {
	return &State{
		ConfigHash: 0xdeadbeefcafe, ImageHash: 0x1234567890ab, CodeTop: 300,
		DeltaVersion: 7, DeltaTop: 280,
		Regs: []word.Word{1, 2, 3, word.Invalid()},
		P:    42, CP: 7, E: 0x400010, B: 0x800000, B0: 0x800000,
		H: 0x10020, HB: 0x10010, TR: 0xC00004, S: 0x10011,
		Mode: true, SF: false, CF: true,
		ShadowH: 0x10008, ShadowTR: 0xC00002, ShadowNext: -1,
		BLTOP:  0x400020,
		Halted: false, Failed: false,
		GCRetryAddr: 5, GCRetryInstr: ^uint64(0),
		LocalTop: 0x400020, ChoiceTop: 0x80000d,
		Heap:   []word.Word{10, 11, 12},
		Local:  []word.Word{20, 21},
		Choice: []word.Word{30, 31, 32, 33},
		Trail:  []word.Word{40},
		DataLines: []cache.LineState{
			{VA: 0x10020, Zone: word.ZGlobal, Data: 99, Dirty: true},
			{VA: 0x400010, Zone: word.ZLocal, Data: 98},
		},
		CodeLines: []cache.LineState{{VA: 12, Data: 77}},
		DataPages: []mmu.PageEntry{{VPage: 4, Frame: 1}},
		CodePages: []mmu.PageEntry{{VPage: 0, Frame: 0}},
		FrameNext: 2, OpenRow: 9, OpenRowOK: true,
		Counters: Counters{NsPerCycle: 80, Cycles: 1000, Instrs: 200, Inferences: 3},
		GC:       GCCounters{Collections: 2, LiveWords: 50, FreedWords: 70, TrailDrops: 1, Cycles: 480},
		DCache:   cache.Stats{Reads: 500, Writes: 300, ReadMiss: 20, WriteMiss: 10, WriteBacks: 5},
		CCache:   cache.Stats{Reads: 800, ReadMiss: 30},
		DataMMU:  mmu.Stats{Translations: 35, PageFaults: 2, ZoneChecks: 700, ZoneTraps: 1},
		CodeMMU:  mmu.Stats{Translations: 31, PageFaults: 1},
		MemReads: 52, MemWrite: 15, MemPageH: 40,
		Goal:      "nrev([1,2,3], R).",
		SessState: 2, SessDelivered: 4, SessBudget: 100000,
	}
}

// TestRoundTrip: Decode(Encode(s)) reproduces every field, and
// re-encoding the decoded state reproduces the bytes.
func TestRoundTrip(t *testing.T) {
	s := sample()
	blob := Encode(s)
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip differs:\n in  %+v\n out %+v", s, got)
	}
	blob2 := Encode(got)
	if string(blob) != string(blob2) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestTruncationSweep: every strict prefix of a valid blob is rejected
// with a typed error, never a panic.
func TestTruncationSweep(t *testing.T) {
	blob := Encode(sample())
	for n := 0; n < len(blob); n++ {
		_, err := Decode(blob[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(blob))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) &&
			!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrVersion) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

// TestBitFlips: flipping any single byte is detected — payload flips
// by the checksum, header flips structurally.
func TestBitFlips(t *testing.T) {
	blob := Encode(sample())
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

// TestVersionSkew: a past or future format version is rejected with
// ErrVersion specifically. Version 1 blobs carried two more counters,
// so decoding one with this build's layout would misread every field
// after them.
func TestVersionSkew(t *testing.T) {
	blob := Encode(sample())
	for _, v := range []byte{1, Version + 1} {
		mut := append([]byte(nil), blob...)
		mut[len(Magic)] = v
		if _, err := Decode(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: %v, want ErrVersion", v, err)
		}
	}
}

// TestBadMagic and trailing garbage are malformed, not truncated.
func TestMalformed(t *testing.T) {
	if _, err := Decode([]byte("NOTASNAPxxxxxxxxxxxxxxxxxxxx")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: %v, want ErrMalformed", err)
	}
	blob := append(Encode(sample()), 0xEE)
	if _, err := Decode(blob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
}

// TestValidateRejectsInsaneSections: oversized section counts and
// out-of-range page entries are rejected before any big allocation.
func TestValidateRejectsInsaneSections(t *testing.T) {
	s := sample()
	s.DataPages = []mmu.PageEntry{{VPage: mmu.NumPages, Frame: 0}}
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("out-of-range vpage: %v, want ErrMalformed", err)
	}
	s = sample()
	s.CodePages = []mmu.PageEntry{{VPage: 1, Frame: 99}} // >= FrameNext
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("frame beyond frontier: %v, want ErrMalformed", err)
	}
	s = sample()
	s.SessState = 3
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad session state: %v, want ErrMalformed", err)
	}
}

// TestHashWordsDeterministic pins the image-hash function: stable
// values, order-sensitive, length-sensitive.
func TestHashWordsDeterministic(t *testing.T) {
	a := HashWords([]word.Word{1, 2, 3})
	if a != HashWords([]word.Word{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	if a == HashWords([]word.Word{3, 2, 1}) {
		t.Fatal("hash not order-sensitive")
	}
	if a == HashWords([]word.Word{1, 2}) {
		t.Fatal("hash not length-sensitive")
	}
}
