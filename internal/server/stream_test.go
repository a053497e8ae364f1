package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// The NDJSON stream writer flushes after a yes line only when no
// further line is queued, and never after the terminal line. The
// writer tests feed writeLines a hand-built channel; the stream tests
// drive the whole path over a live server.

// flushRecorder is a ResponseWriter that records, at every explicit
// Flush, how many complete lines the body held, and signals each
// flush on flushed.
type flushRecorder struct {
	*httptest.ResponseRecorder
	at      []int
	flushed chan struct{}
}

func newFlushRecorder(signals int) *flushRecorder {
	return &flushRecorder{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{}, signals)}
}

func (f *flushRecorder) Flush() {
	f.ResponseRecorder.Flush()
	f.at = append(f.at, bytes.Count(f.Body.Bytes(), []byte("\n")))
	select {
	case f.flushed <- struct{}{}:
	default:
	}
}

// streamLines builds n solution lines and the done line after them.
func streamLines(n int) []wire.Reply {
	reps := make([]wire.Reply, 0, n+1)
	for i := 1; i <= n; i++ {
		reps = append(reps, wire.Reply{
			Status:    wire.StatusYes,
			Bindings:  map[string]string{"X": fmt.Sprint(i)},
			Solutions: i,
		})
	}
	return append(reps, wire.Reply{Status: wire.StatusDone, Solutions: n,
		Stats: &wire.Counters{Cycles: 1234, Instructions: 567, Inferences: 89}})
}

// checkNDJSON asserts the recorder holds a 200 NDJSON response whose
// body is byte-identical to a json.Encoder writing one line per reply.
func checkNDJSON(t *testing.T, rec *flushRecorder, reps []wire.Reply) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Errorf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, rep := range reps {
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Body.String(); got != want.String() {
		t.Errorf("body differs from one encoded line per reply:\n got %q\nwant %q", got, want.String())
	}
}

// TestStreamWriterBurst: lines that are all queued before the writer
// runs leave without a single explicit flush; the whole body goes out
// when the handler returns.
func TestStreamWriterBurst(t *testing.T) {
	reps := streamLines(16)
	lines := make(chan wire.Reply, len(reps))
	for _, rep := range reps {
		lines <- rep
	}
	close(lines)
	rec := newFlushRecorder(len(reps))
	writeLines(rec, lines, func() { t.Error("writer cancelled a healthy stream") })
	if len(rec.at) != 0 {
		t.Errorf("%d explicit flushes (after lines %v), want 0", len(rec.at), rec.at)
	}
	checkNDJSON(t, rec, reps)
}

// TestStreamWriterSlow: when each solution is sent only after the
// previous one reached the connection, every yes line is flushed
// exactly once, right after it was written, and the done line is not
// flushed.
func TestStreamWriterSlow(t *testing.T) {
	const n = 5
	reps := streamLines(n)
	lines := make(chan wire.Reply, 16) // as streamToWriter's
	rec := newFlushRecorder(len(reps))
	go func() {
		defer close(lines)
		for i, rep := range reps {
			lines <- rep
			if i == n {
				return // the done line
			}
			select {
			case <-rec.flushed:
			case <-time.After(10 * time.Second):
				t.Errorf("yes line %d was not flushed within 10s", i+1)
				return
			}
		}
	}()
	writeLines(rec, lines, func() { t.Error("writer cancelled a healthy stream") })
	want := []int{1, 2, 3, 4, 5}
	if fmt.Sprint(rec.at) != fmt.Sprint(want) {
		t.Errorf("flushed after lines %v, want %v", rec.at, want)
	}
	checkNDJSON(t, rec, reps)
}

// TestStreamTerminalLines: every way a stream ends reaches the client
// as its terminal line, after the solutions that preceded it.
func TestStreamTerminalLines(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tc := range []struct {
		name string
		req  wire.QueryRequest
		yes  []string // X bindings of the yes lines
		end  string   // terminal status
		sols int      // terminal solution count (done only)
		msg  string   // substring of the terminal error
	}{
		{"limit", wire.QueryRequest{Goal: "member(X, [1,2,3,4,5]).", Limit: 2},
			[]string{"1", "2"}, wire.StatusDone, 2, ""},
		{"parse error", wire.QueryRequest{Goal: "member(X, [1,2,3"},
			nil, wire.StatusError, 0, "in list"},
		{"unknown program", wire.QueryRequest{Program: "nope", Goal: "member(X, [1])."},
			nil, wire.StatusError, 0, "unknown program"},
		{"error after solutions", wire.QueryRequest{Goal: "member(X, [1,2,a]), Y is X + 1."},
			[]string{"1", "2"}, wire.StatusError, 0, "arithmetic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			rep, err := c.Stream(ctx, tc.req, func(line wire.Reply) bool {
				got = append(got, line.Bindings["X"])
				return true
			})
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if strings.Join(got, ",") != strings.Join(tc.yes, ",") {
				t.Errorf("yes lines bind X to %v, want %v", got, tc.yes)
			}
			if rep.Status != tc.end {
				t.Fatalf("terminal line %+v, want status %q", rep, tc.end)
			}
			if tc.end == wire.StatusDone && rep.Solutions != tc.sols {
				t.Errorf("done line counts %d solutions, want %d", rep.Solutions, tc.sols)
			}
			if tc.end == wire.StatusError && !strings.Contains(rep.Error, tc.msg) {
				t.Errorf("error line %q, want a message containing %q", rep.Error, tc.msg)
			}
		})
	}
}

// TestStreamClientGoneReleasesMachine: a client that stops reading an
// endless stream and closes its connection gets the machine released,
// so the next query on the 1-machine pool is served.
func TestStreamClientGoneReleasesMachine(t *testing.T) {
	srv, c := startServer(t, Config{
		Programs: map[string]string{"nat": "nat(0).\nnat(N) :- nat(M), N is M + 1.\n"},
		PoolSize: 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	seen := 0
	rep, err := c.Stream(ctx, wire.QueryRequest{Goal: "nat(X)."}, func(wire.Reply) bool {
		seen++
		return seen < 3
	})
	if err != nil || seen != 3 || rep.Status != wire.StatusYes {
		t.Fatalf("stream stopped after %d lines: rep=%+v err=%v", seen, rep, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Pool().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("machine still leased 10s after the client left: %+v", srv.Pool().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep, err = c.Query(ctx, wire.QueryRequest{Goal: "nat(X)."})
	if err != nil || rep.Status != wire.StatusYes || rep.Bindings["X"] != "0" {
		t.Fatalf("query after the departed stream: rep=%+v err=%v", rep, err)
	}
}
