package machine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/word"
)

// sample builds a State with every section populated, so the
// round-trip test exercises each encoder branch. It is a halted
// machine with a solution out, so its session phase is 2.
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
		Halted: true, Failed: false,
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
		Stats:    Stats{NsPerCycle: 80, Cycles: 1000, Instrs: 200, Inferences: 3},
		GC:       GCStats{Collections: 2, LiveWords: 50, FreedWords: 70, TrailDrops: 1, Cycles: 480},
		DCache:   cache.Stats{Reads: 500, Writes: 300, ReadMiss: 20, WriteMiss: 10, WriteBacks: 5},
		CCache:   cache.Stats{Reads: 800, ReadMiss: 30},
		DataMMU:  mmu.Stats{Translations: 35, PageFaults: 2, ZoneChecks: 700, ZoneTraps: 1},
		CodeMMU:  mmu.Stats{Translations: 31, PageFaults: 1},
		MemReads: 52, MemWrite: 15, MemPageH: 40,
		SessState: 2, SessDelivered: 4, SessBudget: 100000,
	}
}

// TestRoundTrip: DecodeState(s.Encode()) reproduces every field, and
// re-encoding the decoded state reproduces the bytes.
func TestRoundTrip(t *testing.T) {
	s := sample()
	blob := s.Encode()
	got, err := DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip differs:\n in  %+v\n out %+v", s, got)
	}
	blob2 := got.Encode()
	if string(blob) != string(blob2) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestTruncationSweep: every strict prefix of a valid blob is rejected
// with a typed error, never a panic.
func TestTruncationSweep(t *testing.T) {
	blob := sample().Encode()
	for n := 0; n < len(blob); n++ {
		_, err := DecodeState(blob[:n])
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
	blob := sample().Encode()
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := DecodeState(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

// TestVersionSkew: a past or future format version is rejected with
// ErrVersion specifically. Version 1 blobs carried two more counters,
// so decoding one with this build's layout would misread every field
// after them.
func TestVersionSkew(t *testing.T) {
	blob := sample().Encode()
	for _, v := range []byte{1, snapVersion + 1} {
		mut := append([]byte(nil), blob...)
		mut[len(snapMagic)] = v
		if _, err := DecodeState(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: %v, want ErrVersion", v, err)
		}
	}
}

// TestBadMagic and trailing garbage are malformed, not truncated.
func TestMalformed(t *testing.T) {
	if _, err := DecodeState([]byte("NOTASNAPxxxxxxxxxxxxxxxxxxxx")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: %v, want ErrMalformed", err)
	}
	blob := append(sample().Encode(), 0xEE)
	if _, err := DecodeState(blob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
}

// TestValidateRejectsInsaneSections: oversized section counts and
// out-of-range page entries are rejected before any big allocation.
func TestValidateRejectsInsaneSections(t *testing.T) {
	s := sample()
	s.DataPages = []mmu.PageEntry{{VPage: mmu.NumPages, Frame: 0}}
	if _, err := DecodeState(s.Encode()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("out-of-range vpage: %v, want ErrMalformed", err)
	}
	s = sample()
	s.CodePages = []mmu.PageEntry{{VPage: 1, Frame: 99}} // >= FrameNext
	if _, err := DecodeState(s.Encode()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("frame beyond frontier: %v, want ErrMalformed", err)
	}
	s = sample()
	s.SessState = 3
	if _, err := DecodeState(s.Encode()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad session state: %v, want ErrMalformed", err)
	}
}

// TestDecodeRefusesPhaseMismatch: the session phase is a function of
// the machine's halted/failed flags, so a blob whose phase disagrees
// with them, or carries none, is inconsistent state: ErrBadSnapshot.
func TestDecodeRefusesPhaseMismatch(t *testing.T) {
	for _, c := range []struct {
		halted, failed bool
		phase          uint8
	}{
		{true, false, 1}, // a solution out, labelled running
		{false, false, 2},
		{true, true, 2}, // exhausted, labelled as having a solution out
		{false, false, 0},
		{true, false, 0},
	} {
		s := sample()
		s.Halted, s.Failed, s.SessState = c.halted, c.failed, c.phase
		if _, err := DecodeState(s.Encode()); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("halted=%v failed=%v phase %d: %v, want ErrBadSnapshot", c.halted, c.failed, c.phase, err)
		}
		s.SessState = sessPhase(c.halted, c.failed)
		if _, err := DecodeState(s.Encode()); err != nil {
			t.Errorf("halted=%v failed=%v with its own phase: %v", c.halted, c.failed, err)
		}
	}
}

// TestBlobCarriesEveryCounter is the blob's exhaustive-inventory
// guard: every scalar a State carries — registers, frontiers, gates,
// the session block, and each field of the statistics blocks
// (machine, GC, both caches, both MMUs, memory) — is set by reflection
// to a distinct non-zero value and must come back from
// DecodeState(Encode()). A counter added to Stats, GCStats, cache.Stats
// or mmu.Stats without extending the codec fails here instead of
// silently resuming from zero. The slices are covered by TestRoundTrip.
func TestBlobCarriesEveryCounter(t *testing.T) {
	var s State
	next := uint64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			// Sections, not counters.
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			next++
			v.SetUint(next)
		case reflect.Int32:
			next++
			v.SetInt(-int64(next))
		case reflect.Float64:
			next++
			v.SetFloat(float64(next) + 0.5)
		default:
			t.Fatalf("%s: unhandled kind %v; extend this test with the codec", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&s).Elem(), "State")
	s.SessState = sessPhase(s.Halted, s.Failed) // checked against the flags on decode
	got, err := DecodeState(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	want, have := reflect.ValueOf(s), reflect.ValueOf(*got)
	for i := 0; i < want.NumField(); i++ {
		f := want.Type().Field(i)
		if f.Type.Kind() == reflect.Slice {
			continue
		}
		if !reflect.DeepEqual(want.Field(i).Interface(), have.Field(i).Interface()) {
			t.Errorf("%s: encoded %+v, decoded %+v", f.Name, want.Field(i).Interface(), have.Field(i).Interface())
		}
	}
}
