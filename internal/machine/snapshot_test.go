package machine

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/reader"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// buildImageF is buildImage for fuzz targets (testing.TB).
func buildImageF(tb testing.TB, src, query string) *asm.Image {
	tb.Helper()
	clauses, err := reader.ParseAll(src)
	if err != nil {
		tb.Fatal(err)
	}
	c := compiler.New(nil)
	m, err := c.CompileProgram(clauses)
	if err != nil {
		tb.Fatal(err)
	}
	goal, err := reader.ParseTerm(query)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.CompileQuery(m, goal); err != nil {
		tb.Fatal(err)
	}
	im, err := asm.Link(m)
	if err != nil {
		tb.Fatal(err)
	}
	return im
}

// compareResults asserts that two machines report byte-identical
// counters across every statistics block the Result carries.
func compareResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Success != b.Success {
		t.Fatalf("%s: success %v vs %v", label, a.Success, b.Success)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ:\n a %+v\n b %+v", label, a.Stats, b.Stats)
	}
	if a.DCache != b.DCache || a.CCache != b.CCache {
		t.Fatalf("%s: cache stats differ:\n a %+v %+v\n b %+v %+v",
			label, a.DCache, a.CCache, b.DCache, b.CCache)
	}
	if a.Mem != b.Mem {
		t.Fatalf("%s: memory stats differ:\n a %+v\n b %+v", label, a.Mem, b.Mem)
	}
	if a.DataMMU != b.DataMMU {
		t.Fatalf("%s: mmu stats differ:\n a %+v\n b %+v", label, a.DataMMU, b.DataMMU)
	}
	if a.GC != b.GC {
		t.Fatalf("%s: gc stats differ:\n a %+v\n b %+v", label, a.GC, b.GC)
	}
}

// TestSnapshotContinuationIdentical is the tentpole correctness bar: a
// query suspended mid-run, captured, and restored onto a fresh pooled
// machine continues to byte-identical solutions, cycle counts and
// cache statistics vs the never-suspended run — across many different
// suspension points.
func TestSnapshotContinuationIdentical(t *testing.T) {
	src, query := nrevTestSrc, "nrev([a,b,c,d,e,f,g,h], R)."
	im := buildImage(t, src, query)
	entry, _ := im.Entry(compiler.QueryPI)

	ref, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(ref, entry); err != nil {
		t.Fatal(err)
	}
	want := ref.Result()
	wantR := ref.QueryBindings(im.QueryVars)[term.Var("R")].String()

	for _, budget := range []uint64{1, 13, 200, 3000} {
		src1, err := New(im, Config{})
		if err != nil {
			t.Fatal(err)
		}
		src1.Begin(entry)
		st, err := src1.RunFor(nil, budget)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := src1.CaptureBlob()
		if err != nil {
			t.Fatalf("budget %d: capture: %v", budget, err)
		}
		dst, err := New(im, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the target first so the restore must actually replace
		// state, not ride on fresh-machine zeroes.
		if _, err := runToHalt(dst, entry); err != nil {
			t.Fatal(err)
		}
		dst.Reset()
		if err := dst.RestoreBlob(blob); err != nil {
			t.Fatalf("budget %d: restore: %v", budget, err)
		}
		for st != Halted {
			st, err = dst.RunFor(nil, budget)
			if err != nil {
				t.Fatal(err)
			}
		}
		compareResults(t, "restored continuation", want, dst.Result())
		if got := dst.QueryBindings(im.QueryVars)[term.Var("R")].String(); got != wantR {
			t.Fatalf("budget %d: R = %s, want %s", budget, got, wantR)
		}
	}
}

// TestSnapshotRedoEnumeration suspends between solutions (after a
// solution is out, before the redo that the next RunFor performs) and
// checks the restored machine enumerates the identical remaining
// solutions.
func TestSnapshotRedoEnumeration(t *testing.T) {
	im := buildImage(t, memberSrc, "member(X, [1,2,3,4,5]).")
	entry, _ := im.Entry(compiler.QueryPI)

	enumerate := func(m *Machine) []string {
		t.Helper()
		var got []string
		for {
			st, err := m.RunFor(nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st != Halted {
				t.Fatalf("status %v", st)
			}
			if !m.Result().Success {
				return got
			}
			got = append(got, m.QueryBindings(im.QueryVars)[term.Var("X")].String())
		}
	}

	// Source machine: take two solutions, then park.
	src, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	src.Begin(entry)
	for i := 0; i < 2; i++ {
		if st, err := src.RunFor(nil, 0); err != nil || st != Halted || !src.Result().Success {
			t.Fatalf("solution %d: %v %v", i, st, err)
		}
	}
	blob, err := src.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreBlob(blob); err != nil {
		t.Fatal(err)
	}
	// The restored machine sits where the source did: solution 2 just
	// delivered. Redo-driven enumeration must yield exactly 3, 4, 5 —
	// and the source machine, continued in this process, must agree.
	wantRest := enumerate(src)
	gotRest := enumerate(dst)
	if len(wantRest) != 3 || !reflect.DeepEqual(gotRest, wantRest) {
		t.Fatalf("restored enumeration %v, source continuation %v", gotRest, wantRest)
	}
	compareResults(t, "post-enumeration", src.Result(), dst.Result())
}

// TestSnapshotUnderTinyHeapGC asserts relocation-free soundness: a
// query that has already been through sliding compactions in a tiny
// heap is captured mid-run and restored, and the continuation — with
// more collections ahead of it — stays byte-identical to the
// uninterrupted run. The GC's order-preserving compaction is what
// makes the blob's absolute addresses sound.
func TestSnapshotUnderTinyHeapGC(t *testing.T) {
	src := nrevTestSrc
	query := "nrev([a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t,u,v,w,x,y,z], R)."
	im := buildImage(t, src, query)
	entry, _ := im.Entry(compiler.QueryPI)
	cfg := Config{GCThresholdWords: 256}

	ref, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(ref, entry); err != nil {
		t.Fatal(err)
	}
	want := ref.Result()
	if want.GC.Collections == 0 {
		t.Fatal("test is vacuous: no collection ran")
	}
	wantR := ref.QueryBindings(im.QueryVars)[term.Var("R")].String()

	for _, budget := range []uint64{500, 2500, 10000} {
		m1, err := New(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m1.Begin(entry)
		st, err := m1.RunFor(nil, budget)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := m1.CaptureBlob()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := New(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.RestoreBlob(blob); err != nil {
			t.Fatal(err)
		}
		for st != Halted {
			st, err = m2.RunFor(nil, budget)
			if err != nil {
				t.Fatal(err)
			}
		}
		compareResults(t, "gc continuation", want, m2.Result())
		if got := m2.QueryBindings(im.QueryVars)[term.Var("R")].String(); got != wantR {
			t.Fatalf("budget %d: R = %s, want %s", budget, got, wantR)
		}
	}
}

// TestCaptureRestoreCaptureByteIdentical is the round-trip property:
// restoring a capture and capturing again reproduces the blob byte for
// byte, on the source machine itself and on a different machine.
func TestCaptureRestoreCaptureByteIdentical(t *testing.T) {
	im := buildImage(t, nrevTestSrc, "nrev([a,b,c,d,e], R).")
	entry, _ := im.Entry(compiler.QueryPI)
	src, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	src.Begin(entry)
	if _, err := src.RunFor(nil, 500); err != nil {
		t.Fatal(err)
	}
	blob1, err := src.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreBlob(blob1); err != nil {
		t.Fatal(err)
	}
	blob2, err := dst.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("capture→restore→capture not byte-identical: %d vs %d bytes", len(blob1), len(blob2))
	}

	// And the source can re-capture itself unchanged.
	blob3, err := src.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1, blob3) {
		t.Fatal("re-capture of an untouched machine changed the blob")
	}
}

// TestRestoreRejectsMismatches: wrong image, wrong configuration, and
// a faulted source are refused with the typed sentinels, and a refused
// restore leaves the target fully usable.
func TestRestoreRejectsMismatches(t *testing.T) {
	im1 := buildImage(t, nrevTestSrc, "nrev([a,b,c], R).")
	im2 := buildImage(t, memberSrc, "member(X, [1,2,3]).")
	entry1, _ := im1.Entry(compiler.QueryPI)

	src, err := New(im1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	src.Begin(entry1)
	if _, err := src.RunFor(nil, 100); err != nil {
		t.Fatal(err)
	}
	blob, err := src.CaptureBlob()
	if err != nil {
		t.Fatal(err)
	}

	other, err := New(im2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreBlob(blob); !errors.Is(err, ErrImageMismatch) {
		t.Fatalf("cross-image restore: %v, want ErrImageMismatch", err)
	}

	diffCfg, err := New(im1, Config{GCThresholdWords: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := diffCfg.RestoreBlob(blob); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("cross-config restore: %v, want ErrConfigMismatch", err)
	}

	// A refused target still runs.
	entry2, _ := im2.Entry(compiler.QueryPI)
	if res, err := runToHalt(other, entry2); err != nil || !res.Success {
		t.Fatalf("target unusable after refused restore: %v", err)
	}

	// A faulted machine refuses capture.
	grow := buildImage(t, "grow(0, []).\ngrow(N, [N|T]) :- N > 0, M is N - 1, grow(M, T).\n", "grow(100000, _).")
	ge, _ := grow.Entry(compiler.QueryPI)
	fm, err := New(grow, Config{GlobalBase: 0x10000, GlobalSize: 0x1000, GCOnOverflow: Off})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(fm, ge); err == nil {
		t.Fatal("grow did not fault")
	}
	if _, err := fm.Capture(); !errors.Is(err, ErrNotCapturable) {
		t.Fatalf("capture of faulted machine: %v, want ErrNotCapturable", err)
	}
}

// TestResetClearsRegisterRoots is the satellite-1 regression test: the
// argument registers are GC roots, so values a previous query leaves
// in them must not survive Reset — stale registers would keep dead
// heap cells live through the next query's collections, diverging its
// GC behaviour (and thus its counters) from a fresh machine's.
func TestResetClearsRegisterRoots(t *testing.T) {
	src := nrevTestSrc
	probe := "nrev([p,q,r,s,t,u,v,w,x,y,z], R)."
	cfg := Config{GCThresholdWords: 256}

	imProbe := buildImage(t, src, probe)

	// Reused machine: run the probe (dirtying the registers and heap),
	// Reset, run it again; the second run must match a fresh machine's.
	reused, err := New(imProbe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := imProbe.Entry(compiler.QueryPI)
	// Dirty it: run the probe once (leaves heap pointers in the arg
	// registers and a populated heap), then Reset and run it again.
	if _, err := runToHalt(reused, entry); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if _, err := runToHalt(reused, entry); err != nil {
		t.Fatal(err)
	}
	second := reused.Result()

	fresh, err := New(imProbe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToHalt(fresh, entry); err != nil {
		t.Fatal(err)
	}
	first := fresh.Result()

	// Raw cycle/cache counters legitimately differ (the reused machine
	// has warm caches); the structural counters and everything the GC
	// did must not.
	if second.GC != first.GC {
		t.Fatalf("gc stats diverge on a reused machine:\nfresh  %+v\nreused %+v", first.GC, second.GC)
	}
	type structural struct {
		Inferences, DerefSteps, UnifyNodes, TrailPushes, ChoicePoints, EnvAllocs uint64
	}
	a := structural{first.Stats.Inferences, first.Stats.DerefSteps, first.Stats.UnifyNodes,
		first.Stats.TrailPushes, first.Stats.ChoicePoints, first.Stats.EnvAllocs}
	b := structural{second.Stats.Inferences, second.Stats.DerefSteps, second.Stats.UnifyNodes,
		second.Stats.TrailPushes, second.Stats.ChoicePoints, second.Stats.EnvAllocs}
	if a != b {
		t.Fatalf("structural counters diverge on a reused machine:\nfresh  %+v\nreused %+v", a, b)
	}
	wr := reused.QueryBindings(imProbe.QueryVars)[term.Var("R")].String()
	wf := fresh.QueryBindings(imProbe.QueryVars)[term.Var("R")].String()
	if wr != wf {
		t.Fatalf("solutions diverge: %s vs %s", wr, wf)
	}
}

// TestCountersMirrorsStats pins the serializer's exhaustive-inventory
// property: snapshot.Counters must mirror machine.Stats field for
// field, so adding a Stats field without extending the snapshot breaks
// this test instead of silently dropping state.
func TestCountersMirrorsStats(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	ct := reflect.TypeOf(snapshot.Counters{})
	if ct.NumField() != st.NumField() {
		t.Fatalf("snapshot.Counters has %d fields, machine.Stats %d",
			ct.NumField(), st.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		sf, cf := st.Field(i), ct.Field(i)
		if sf.Name != cf.Name || sf.Type != cf.Type {
			t.Fatalf("field %d: machine.Stats has %s %v, snapshot.Counters has %s %v",
				i, sf.Name, sf.Type, cf.Name, cf.Type)
		}
	}
	gt := reflect.TypeOf(GCStats{})
	gct := reflect.TypeOf(snapshot.GCCounters{})
	if gct.NumField() != gt.NumField() {
		t.Fatalf("snapshot.GCCounters has %d fields, machine.GCStats %d", gct.NumField(), gt.NumField())
	}
	for i := 0; i < gt.NumField(); i++ {
		if gt.Field(i).Name != gct.Field(i).Name {
			t.Fatalf("gc field %d: %s vs %s", i, gt.Field(i).Name, gct.Field(i).Name)
		}
	}
}

// FuzzRestoreBlob feeds truncated, bit-flipped and version-skewed
// blobs to RestoreBlob: every corruption must be rejected with a typed
// error — never a panic — and a rejected restore must leave the target
// machine fully functional.
func FuzzRestoreBlob(f *testing.F) {
	im := buildImageF(f, nrevTestSrc, "nrev([a,b,c,d], R).")
	entry, _ := im.Entry(compiler.QueryPI)
	src, err := New(im, Config{})
	if err != nil {
		f.Fatal(err)
	}
	src.Begin(entry)
	if _, err := src.RunFor(nil, 300); err != nil {
		f.Fatal(err)
	}
	blob, err := src.CaptureBlob()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("KCMSNAP1"))
	skew := append([]byte(nil), blob...)
	skew[8] ^= 0xFF // version field
	f.Add(skew)
	flip := append([]byte(nil), blob...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)

	ref, err := New(im, Config{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := runToHalt(ref, entry); err != nil {
		f.Fatal(err)
	}
	want := ref.QueryBindings(im.QueryVars)[term.Var("R")].String()

	target, err := New(im, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := target.RestoreBlob(data)
		if err != nil {
			for _, sentinel := range []error{
				snapshot.ErrTruncated, snapshot.ErrChecksum, snapshot.ErrVersion,
				snapshot.ErrMalformed, ErrImageMismatch, ErrConfigMismatch, ErrBadSnapshot,
			} {
				if errors.Is(err, sentinel) {
					goto typed
				}
			}
			t.Fatalf("untyped restore error: %v", err)
		}
	typed:
		// Success or typed rejection — either way the machine must
		// still run the query correctly from a clean boot.
		target.Reset()
		if _, err := runToHalt(target, entry); err != nil {
			t.Fatalf("target corrupted (run): %v", err)
		}
		if got := target.QueryBindings(im.QueryVars)[term.Var("R")].String(); got != want {
			t.Fatalf("target corrupted: R = %s, want %s", got, want)
		}
	})
}

// TestConfigFingerprintPinned pins the configuration fingerprint every
// blob carries. Restore refuses a blob whose fingerprint differs from
// the machine's, so a change to the fingerprint's text or inputs
// strands every blob an older daemon parked.
func TestConfigFingerprintPinned(t *testing.T) {
	im := buildImage(t, memberSrc, "member(X, [1]).")
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{}, 0xda686bf993f1ffcf},
		{"shallow off", Config{Shallow: Off}, 0xc3061ca097032a0e},
	} {
		m, err := New(im, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.configFingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
