package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// opBytes serializes the first n ops of every client of a workload's
// plan, after its warm-up ops.
func opBytes(t *testing.T, w workload, seed int64, clients, n int) []byte {
	t.Helper()
	p := w.plan(seed)
	var ops []op
	ops = append(ops, p.warmup...)
	for c := 0; c < clients; c++ {
		g := p.gen(c, clients)
		for i := 0; i < n; i++ {
			ops = append(ops, g.next())
		}
	}
	b, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		a := opBytes(t, w, 7, 2, 500)
		if b := opBytes(t, w, 7, 2, 500); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", w.name)
		}
		if c := opBytes(t, w, 8, 2, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
}

// corruptDoer passes requests to the daemon's handler and rewrites the
// reply body.
type corruptDoer struct {
	d       doer
	corrupt func(body []byte) []byte
}

func (c corruptDoer) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	code, b, err := c.d.post(ctx, path, body)
	return code, c.corrupt(b), err
}

// rewriteBindings applies f to every binding of every reply line.
func rewriteBindings(f func(string) string) func([]byte) []byte {
	return func(body []byte) []byte {
		var out bytes.Buffer
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			var rep wire.Reply
			if len(bytes.TrimSpace(line)) == 0 || json.Unmarshal(line, &rep) != nil {
				out.Write(line)
				continue
			}
			for k, v := range rep.Bindings {
				rep.Bindings[k] = f(v)
			}
			b, _ := json.Marshal(rep)
			out.Write(b)
			out.WriteByte('\n')
		}
		return out.Bytes()
	}
}

// dropLine removes the n-th solution line of an NDJSON stream.
func dropLine(n int) func([]byte) []byte {
	return func(body []byte) []byte {
		lines := bytes.SplitAfter(body, []byte("\n"))
		if n >= len(lines)-1 {
			return body
		}
		return bytes.Join(append(lines[:n:n], lines[n+1:]...), nil)
	}
}

// swapLines exchanges the first two solution lines of an NDJSON stream.
func swapLines(body []byte) []byte {
	lines := bytes.SplitAfter(body, []byte("\n"))
	if len(lines) > 2 {
		lines[0], lines[1] = lines[1], lines[0]
	}
	return bytes.Join(lines, nil)
}

func TestOracleRejectsCorruptedReply(t *testing.T) {
	ctx := context.Background()
	small := serveSmall(3)
	long := simLong(3)
	tenant := tenantRW(3)
	cases := []struct {
		name    string
		p       plan
		op      op
		corrupt func([]byte) []byte
	}{
		{"nrev element changed", small, small.warmup[0],
			rewriteBindings(func(v string) string { return strings.Replace(v, ",", ",1", 1) })},
		{"queens6 not a placement", small, small.warmup[1],
			rewriteBindings(func(string) string { return "[1,2,3,4,5,6]" })},
		{"member enum value changed", small, small.warmup[2],
			rewriteBindings(func(v string) string { return v + "x" })},
		{"member stream out of order", small, small.warmup[3], swapLines},
		{"zebra owner changed", long, long.warmup[0],
			rewriteBindings(func(string) string { return "english" })},
		{"queens8 solution missing", long, long.warmup[1], dropLine(5)},
		{"tenant fact missing", tenant, tenant.warmup[0], dropLine(3)},
	}
	for _, c := range cases {
		srv, err := server.New(server.Config{Programs: c.p.programs})
		if err != nil {
			t.Fatal(err)
		}
		h := &handlerDoer{h: srv.Handler()}
		o := c.op
		if _, err := runOp(ctx, h, &o); err != nil {
			t.Errorf("%s: the uncorrupted reply fails the oracle: %v", c.name, err)
		}
		if _, err := runOp(ctx, corruptDoer{d: h, corrupt: c.corrupt}, &o); err == nil {
			t.Errorf("%s: the oracle accepted a corrupted reply", c.name)
		}
	}
}

func TestReplayConservesTime(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		p := w.plan(5)
		env, err := newReplayEnv(p.programs)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{epoch: time.Now()}
		for i := range p.warmup {
			root := tr.open(uint64(i), "replay", -1)
			out, err := env.replay(ctx, tr, uint64(i), root, &p.warmup[i])
			tr.close(root)
			if err == nil {
				err = check(&p.warmup[i], out.sols)
			}
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			parent := tr.spans[root]
			if parent.End <= parent.Start {
				t.Fatalf("%s: op %d's span [%d,%d] has no duration: the clock is not running", w.name, i, parent.Start, parent.End)
			}
			var kids []span
			var sum int64
			for _, s := range tr.spans[root+1:] {
				if s.Parent != root {
					t.Fatalf("%s: span %s under %d, want every replayed call directly under the op", w.name, s.Name, s.Parent)
				}
				if s.Start < parent.Start || s.End > parent.End || s.End < s.Start {
					t.Errorf("%s: span %s [%d,%d] leaves its parent [%d,%d]", w.name, s.Name, s.Start, s.End, parent.Start, parent.End)
				}
				if n := len(kids); n > 0 && s.Start < kids[n-1].End {
					t.Errorf("%s: span %s overlaps %s", w.name, s.Name, kids[n-1].Name)
				}
				kids = append(kids, s)
				sum += s.End - s.Start
			}
			if len(kids) == 0 {
				t.Fatalf("%s: op %d recorded no layer spans", w.name, i)
			}
			// Every clock reading is an exact monotonic nanosecond count,
			// so conservation holds to the nanosecond.
			if self := selfTime(parent, kids); sum+self != parent.End-parent.Start {
				t.Errorf("%s: children %d ns + self %d ns != parent %d ns", w.name, sum, self, parent.End-parent.Start)
			}
			tr.spans = tr.spans[:0]
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own
// workload and metric lists the same.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q: %q, program %q: %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, l := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, e2eMetrics}, {"per_layer", bj.PerLayer, layerMetrics}} {
		if len(l.got) != len(l.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", l.name, len(l.got), len(l.want))
			continue
		}
		for i, m := range l.want {
			if l.got[i].Name != m.name || l.got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", l.name, i, l.got[i].Name, l.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
