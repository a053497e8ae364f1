package trace

import (
	"strings"
	"testing"
)

func tbl() *PredTable {
	return NewPredTable([]Pred{
		{Start: 100, Name: "app/3"},
		{Start: 10, Name: "nrev/2"},
		{Start: 200, Name: "main/0"},
	})
}

func TestPredTableLocate(t *testing.T) {
	pt := tbl()
	cases := []struct {
		addr uint32
		want string
	}{
		{0, SystemName}, {9, SystemName},
		{10, "nrev/2"}, {99, "nrev/2"},
		{100, "app/3"}, {199, "app/3"},
		{200, "main/0"}, {1 << 20, "main/0"},
	}
	for _, c := range cases {
		if got := pt.Name(pt.Locate(c.addr)); got != c.want {
			t.Errorf("Locate(%d) = %q, want %q", c.addr, got, c.want)
		}
	}
	var nilTbl *PredTable
	if got := nilTbl.Name(nilTbl.Locate(42)); got != SystemName {
		t.Errorf("nil table Locate = %q, want %q", got, SystemName)
	}
}

func TestRecorderKeepsPrefix(t *testing.T) {
	rec := NewRecorder(2)
	for i := 1; i <= 5; i++ {
		rec.Emit(Event{Seq: uint64(i)})
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Events = %+v, want seqs 1,2", evs)
	}
}

func TestTee(t *testing.T) {
	a, b := NewRecorder(4), NewRecorder(4)
	h := Tee(nil, a, nil, b)
	h.Emit(Event{Seq: 1})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("tee did not fan out: %d %d", len(a.Events()), len(b.Events()))
	}
	if got := Tee(nil, a); got != Hook(a) {
		t.Fatalf("single-hook Tee should unwrap")
	}
	if got := Tee(nil, nil); got != nil {
		t.Fatalf("empty Tee should be nil")
	}
	p := NewProfiler()
	th := Tee(a, p)
	if binder, ok := th.(PredBinder); !ok {
		t.Fatalf("tee should propagate BindPreds")
	} else {
		binder.BindPreds(tbl())
		if p.preds == nil {
			t.Fatalf("BindPreds did not reach profiler")
		}
	}
}

func TestJSONLShape(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.BindPreds(tbl())
	j.Emit(Event{Seq: 1, Kind: KInstr, P: 12, Cycles: 3})
	j.Emit(Event{Seq: 2, Kind: KTrail, P: 12, Addr: 77, Arg: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"instr"`) ||
		!strings.Contains(lines[0], `"pred":"nrev/2"`) ||
		!strings.Contains(lines[0], `"cycles":3`) {
		t.Errorf("bad instr line: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"trail"`) ||
		!strings.Contains(lines[1], `"addr":77`) ||
		!strings.Contains(lines[1], `"arg":2`) {
		t.Errorf("bad trail line: %s", lines[1])
	}
}

// feed drives a profiler with a synthetic event stream.
func feed(p *Profiler, evs ...Event) {
	for _, ev := range evs {
		p.Emit(ev)
	}
}

func TestProfilerFlatAndConservation(t *testing.T) {
	p := NewProfiler()
	p.BindPreds(tbl())
	feed(p,
		Event{Kind: KBoot, P: 200, Cycles: 4},
		Event{Kind: KInstr, P: 200, Cycles: 2},
		Event{Kind: KCall, P: 10, Addr: 10},
		Event{Kind: KInstr, P: 10, Cycles: 5},
		Event{Kind: KCall, P: 100, Addr: 100},
		Event{Kind: KInstr, P: 100, Cycles: 7},
		Event{Kind: KProceed, P: 11},
		Event{Kind: KInstr, P: 11, Cycles: 1},
		Event{Kind: KRedo, Cycles: 3},
	)
	if got, want := p.Total(), uint64(4+2+5+7+1+3); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	rows := map[string]Row{}
	for _, r := range p.Rows() {
		rows[r.Name] = r
	}
	if r := rows["main/0"]; r.Self != 2 {
		t.Errorf("main/0 self = %d, want 2", r.Self)
	}
	if r := rows["nrev/2"]; r.Self != 6 || r.Calls != 1 {
		t.Errorf("nrev/2 = %+v, want self 6 calls 1", r)
	}
	if r := rows["app/3"]; r.Self != 7 || r.Calls != 1 {
		t.Errorf("app/3 = %+v, want self 7 calls 1", r)
	}
	if r := rows[BootName]; r.Self != 4 {
		t.Errorf("%s self = %d, want 4", BootName, r.Self)
	}
	if r := rows[RedoName]; r.Self != 3 {
		t.Errorf("%s self = %d, want 3", RedoName, r.Self)
	}
	// nrev/2 is on the stack while app/3 runs: cum = 5(self)+7(app)+1(self) = 13.
	if r := rows["nrev/2"]; r.Cum != 13 {
		t.Errorf("nrev/2 cum = %d, want 13", r.Cum)
	}
	// Special buckets never appear in folded stacks.
	for k := range p.FoldedMap() {
		if strings.Contains(k, "<boot>") || strings.Contains(k, "<redo>") {
			t.Errorf("special bucket leaked into folded key %q", k)
		}
	}
}

func TestProfilerBacktrackTruncatesStack(t *testing.T) {
	p := NewProfiler()
	p.BindPreds(tbl())
	feed(p,
		Event{Kind: KInstr, P: 200, Cycles: 1}, // main/0, stack repaired to [main/0]
		Event{Kind: KCPCreate, Addr: 500, Arg: 2},
		Event{Kind: KCall, P: 10, Addr: 10},   // push nrev/2
		Event{Kind: KCall, P: 100, Addr: 100}, // push app/3
		Event{Kind: KCPRestore, Addr: 500, Arg: 201},
		Event{Kind: KInstr, P: 201, Cycles: 1}, // back in main/0
	)
	key := p.stackKey()
	if key != "main/0" {
		t.Fatalf("stack after restore = %q, want main/0", key)
	}
	// The restored choice point stays live for a second retry.
	feed(p,
		Event{Kind: KCall, P: 10, Addr: 10},
		Event{Kind: KCPRestore, Addr: 500, Arg: 201},
		Event{Kind: KInstr, P: 201, Cycles: 1},
	)
	if key := p.stackKey(); key != "main/0" {
		t.Fatalf("stack after second restore = %q, want main/0", key)
	}
	// Cut drops records above the new top; restore of a dropped frame
	// is then a no-op.
	feed(p,
		Event{Kind: KCPCreate, Addr: 600, Arg: 0},
		Event{Kind: KCut, P: 201, Addr: 500},
		Event{Kind: KCPRestore, Addr: 600, Arg: 202},
	)
	if key := p.stackKey(); key != "main/0" {
		t.Fatalf("stack after cut+stale restore = %q, want main/0", key)
	}
}

func TestProfilerRecursionCumCountedOnce(t *testing.T) {
	p := NewProfiler()
	p.BindPreds(tbl())
	feed(p,
		Event{Kind: KInstr, P: 10, Cycles: 1}, // nrev/2
		Event{Kind: KCall, P: 10, Addr: 10},   // recursive call
		Event{Kind: KInstr, P: 10, Cycles: 1},
		Event{Kind: KCall, P: 10, Addr: 10},
		Event{Kind: KInstr, P: 10, Cycles: 1},
	)
	for _, r := range p.Rows() {
		if r.Name == "nrev/2" {
			if r.Cum != 3 {
				t.Fatalf("recursive cum = %d, want 3 (counted once per stack)", r.Cum)
			}
			return
		}
	}
	t.Fatal("nrev/2 row missing")
}

func TestProfilerResetOnKReset(t *testing.T) {
	p := NewProfiler()
	p.BindPreds(tbl())
	feed(p,
		Event{Kind: KInstr, P: 10, Cycles: 5},
		Event{Kind: KReset},
	)
	if p.Total() != 0 || len(p.FoldedMap()) != 0 {
		t.Fatalf("KReset did not clear profiler: total=%d", p.Total())
	}
}

func TestProfilerWriteFolded(t *testing.T) {
	p := NewProfiler()
	p.BindPreds(tbl())
	feed(p,
		Event{Kind: KBoot, P: 200, Cycles: 4},
		Event{Kind: KInstr, P: 200, Cycles: 2},
		Event{Kind: KCall, P: 10, Addr: 10},
		Event{Kind: KInstr, P: 10, Cycles: 5},
		Event{Kind: KInstr, P: 10, Cycles: 7},
	)
	var sb strings.Builder
	if err := p.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	// Root-first stacks sorted by key; the boot bucket is left out.
	if got, want := sb.String(), "main/0 2\nmain/0;nrev/2 12\n"; got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
}

func TestRenderProfile(t *testing.T) {
	var sb strings.Builder
	RenderProfile(&sb, []Row{
		{Name: "nrev/2", Self: 6, Cum: 13, Calls: 1},
		{Name: "app/3", Self: 7, Cum: 7, Calls: 1},
	}, 13)
	out := sb.String()
	if !strings.Contains(out, "flat cycles by predicate") ||
		!strings.Contains(out, "cumulative cycles by predicate") ||
		!strings.Contains(out, "app/3") {
		t.Fatalf("render output:\n%s", out)
	}
	// Flat table is sorted by self: app/3 (7) before nrev/2 (6).
	if strings.Index(out, "app/3") > strings.Index(out, "nrev/2") {
		t.Fatalf("flat table not sorted by self:\n%s", out)
	}
}
