package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Ring is a fixed-capacity in-memory sink keeping the most recent
// events — the flight recorder for "what led up to this fault".
type Ring struct {
	buf  []Event
	next int
	n    uint64 // total events seen
}

// NewRing creates a ring holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit records one event, overwriting the oldest when full.
func (r *Ring) Emit(ev Event) {
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Seen returns how many events were emitted in total (including
// overwritten ones).
func (r *Ring) Seen() uint64 { return r.n }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Reset discards the retained events and the seen count.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.n = 0
}

// Recorder keeps the first N events and ignores the rest — the shape
// golden-trace tests want ("the execution path must start exactly
// like this").
type Recorder struct {
	buf   []Event
	limit int
	preds *PredTable
}

// NewRecorder creates a recorder keeping the first limit events.
func NewRecorder(limit int) *Recorder {
	if limit < 1 {
		limit = 1
	}
	return &Recorder{limit: limit}
}

// Emit records the event while capacity remains.
func (r *Recorder) Emit(ev Event) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, ev)
	}
}

// BindPreds receives the machine's predicate table (see PredBinder).
func (r *Recorder) BindPreds(t *PredTable) { r.preds = t }

// Events returns the recorded prefix.
func (r *Recorder) Events() []Event { return r.buf }

// Lines renders the recorded prefix with FormatEvent, one line per
// event.
func (r *Recorder) Lines() []string {
	out := make([]string, len(r.buf))
	for i, ev := range r.buf {
		out[i] = FormatEvent(ev, r.preds)
	}
	return out
}

// FormatEvent renders one event in the stable single-line form used
// by golden traces: kind, opcode (instruction events), the owning
// instruction address, the kind-specific address/argument, and the
// owning predicate resolved through the table.
func FormatEvent(ev Event, preds *PredTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", ev.Kind)
	switch ev.Kind {
	case KInstr, KCall, KExecute, KProceed:
		fmt.Fprintf(&b, " op=%-16v", ev.Op)
	default:
		fmt.Fprintf(&b, " %-20s", "")
	}
	fmt.Fprintf(&b, " p=%-6d", ev.P)
	switch ev.Kind {
	case KInstr:
		// Cycles are deliberately omitted: golden traces pin the
		// execution path (opcode, address, predicate); cycle drift is
		// the conservation/pin tests' job.
	case KTrail:
		fmt.Fprintf(&b, " addr=%-8d zone=%d", ev.Addr, ev.Arg)
	case KMMUTrap:
		fmt.Fprintf(&b, " kind=%d", ev.Arg)
	case KHalt:
		fmt.Fprintf(&b, " failed=%d", ev.Arg)
	default:
		fmt.Fprintf(&b, " addr=%-8d", ev.Addr)
	}
	fmt.Fprintf(&b, " pred=%s", preds.Name(preds.Locate(ev.P)))
	return b.String()
}

// lineSink is the buffered writer the streaming sinks share: one line
// per event, the bound predicate table, and the first write error,
// which is sticky. A bufio.Writer's error is sticky too, so checking
// the last write of a line covers the whole line.
type lineSink struct {
	w     *bufio.Writer
	preds *PredTable
	err   error
}

func newLineSink(w io.Writer) lineSink {
	return lineSink{w: bufio.NewWriterSize(w, 64*1024)}
}

// BindPreds receives the machine's predicate table (see PredBinder);
// bound, every event line carries its owning predicate.
func (s *lineSink) BindPreds(t *PredTable) { s.preds = t }

// Flush drains the buffer.
func (s *lineSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Close flushes and returns the first error the sink hit.
func (s *lineSink) Close() error { return s.Flush() }

// Text streams every event as one FormatEvent line, the macrocode
// monitor's view (kcm -trace): the same format the golden traces pin.
type Text struct{ lineSink }

// NewText creates a streaming text sink over w. Call Close (or Flush)
// to drain the buffer.
func NewText(w io.Writer) *Text { return &Text{newLineSink(w)} }

// Emit writes one event line. Write errors are sticky and surfaced
// by Close.
func (t *Text) Emit(ev Event) {
	if t.err != nil {
		return
	}
	t.w.WriteString(FormatEvent(ev, t.preds))
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// JSONL streams every event as one JSON object per line. The encoder
// is hand-rolled: field order is stable, nothing reflects, and only
// populated fields appear, so traces diff cleanly.
type JSONL struct{ lineSink }

// NewJSONL creates a streaming sink over w. Call Close (or Flush) to
// drain the buffer.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{newLineSink(w)} }

// Emit writes one event line. Write errors are sticky and surfaced
// by Close.
func (j *JSONL) Emit(ev Event) {
	if j.err != nil {
		return
	}
	w := j.w
	fmt.Fprintf(w, `{"seq":%d,"kind":%q`, ev.Seq, ev.Kind.String())
	switch ev.Kind {
	case KInstr, KCall, KExecute, KProceed:
		fmt.Fprintf(w, `,"op":%q`, ev.Op.String())
	default:
		// Other kinds carry no opcode.
	}
	fmt.Fprintf(w, `,"p":%d`, ev.P)
	if ev.Addr != 0 {
		fmt.Fprintf(w, `,"addr":%d`, ev.Addr)
	}
	if ev.Arg != 0 {
		fmt.Fprintf(w, `,"arg":%d`, ev.Arg)
	}
	if ev.Cycles != 0 {
		fmt.Fprintf(w, `,"cycles":%d`, ev.Cycles)
	}
	if j.preds != nil {
		fmt.Fprintf(w, `,"pred":%q`, j.preds.Name(j.preds.Locate(ev.P)))
	}
	if _, err := w.WriteString("}\n"); err != nil {
		j.err = err
	}
}
