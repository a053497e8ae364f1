package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// doer posts one request body and returns the status and whole reply
// body. httpDoer goes over a real loopback connection; handlerDoer
// calls a daemon's handler in memory, so the two differ by the
// transport.
type doer interface {
	post(ctx context.Context, path string, body []byte) (int, []byte, error)
}

// httpDoer is one closed-loop client's connection: a private transport
// capped at one connection, which keep-alive holds open across ops.
type httpDoer struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newHTTPDoer(addr string) *httpDoer {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpDoer{base: "http://" + addr, tr: tr, c: &http.Client{Transport: tr}}
}

func (d *httpDoer) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Reading to EOF lets the transport reuse the connection.
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a GET endpoint's body, failing on a non-200 status.
func (d *httpDoer) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: http %d", path, resp.StatusCode)
	}
	return b, err
}

func (d *httpDoer) close() { d.tr.CloseIdleConnections() }

// handlerDoer serves each request through Handler().ServeHTTP on an
// in-memory recorder. When tr is set, every call is a server.handle
// span under the current op.
type handlerDoer struct {
	h      http.Handler
	tr     *tracer
	op     uint64
	parent int32
}

func (d *handlerDoer) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	sp := d.tr.open(d.op, "server.handle", d.parent)
	d.h.ServeHTTP(w, req)
	d.tr.close(sp)
	return w.Code, w.Body.Bytes(), nil
}

// result is what one op returned: its solutions' bindings in order and
// the simulated instructions the daemon reported for it.
type result struct {
	sols   []map[string]string
	instrs uint64
}

// execute runs one op over d, following the wire protocol to the op's
// end, and fails on a transport error, an error status, or a reply
// that breaks the protocol. The oracle runs separately (check).
func execute(ctx context.Context, d doer, o *op) (result, error) {
	var res result
	switch o.Kind {
	case opAssert, opRetract:
		var req any = wire.AssertRequest{Program: o.Program, Tenant: o.Tenant, Clause: o.Text}
		if o.Kind == opRetract {
			req = wire.RetractRequest{Program: o.Program, Tenant: o.Tenant, Clause: o.Text}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return res, err
		}
		rep, err := call(ctx, d, "/v1/"+string(o.Kind), body)
		if err != nil {
			return res, err
		}
		if rep.Status != wire.StatusYes {
			return res, fmt.Errorf("%s %s: status %q", o.Kind, o.Text, rep.Status)
		}
		return res, nil
	case opStream:
		return stream(ctx, d, o)
	}
	body, err := json.Marshal(wire.QueryRequest{Program: o.Program, Tenant: o.Tenant, Goal: o.Text,
		Enumerate: o.Kind == opEnum, Budget: o.Budget})
	if err != nil {
		return res, err
	}
	rep, err := call(ctx, d, "/v1/query", body)
	for err == nil {
		switch rep.Status {
		case wire.StatusYes:
			res.sols = append(res.sols, rep.Bindings)
			if rep.Stats != nil {
				res.instrs = rep.Stats.Instructions
			}
			if o.Kind == opQuery {
				return res, nil
			}
		case wire.StatusSuspended:
		case wire.StatusNo:
			if rep.Stats != nil {
				res.instrs = rep.Stats.Instructions
			}
			return res, nil
		default:
			return res, fmt.Errorf("%s: status %q: %s", o.Text, rep.Status, rep.Error)
		}
		if rep.Session == "" {
			return res, fmt.Errorf("%s: enumeration reply without a session: %s", o.Text, rep.Error)
		}
		body, err = json.Marshal(wire.NextRequest{Session: rep.Session})
		if err != nil {
			return res, err
		}
		rep, err = call(ctx, d, "/v1/next", body)
	}
	return res, err
}

// call posts body and decodes one JSON reply, failing on a non-200
// status.
func call(ctx context.Context, d doer, path string, body []byte) (wire.Reply, error) {
	var rep wire.Reply
	code, b, err := d.post(ctx, path, body)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: http %d: decode: %w", path, code, err)
	}
	if code != http.StatusOK {
		return rep, fmt.Errorf("%s: http %d: %s", path, code, rep.Error)
	}
	return rep, nil
}

// stream runs an NDJSON query and reads every line up to the terminal
// "done" line, which carries the enumeration's counters.
func stream(ctx context.Context, d doer, o *op) (result, error) {
	var res result
	body, err := json.Marshal(wire.QueryRequest{Program: o.Program, Tenant: o.Tenant, Goal: o.Text, Stream: true})
	if err != nil {
		return res, err
	}
	code, b, err := d.post(ctx, "/v1/query", body)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK {
		return res, fmt.Errorf("%s: stream: http %d", o.Text, code)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rep wire.Reply
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return res, fmt.Errorf("%s: stream line: %w", o.Text, err)
		}
		switch rep.Status {
		case wire.StatusYes:
			res.sols = append(res.sols, rep.Bindings)
		case wire.StatusDone:
			if rep.Stats != nil {
				res.instrs = rep.Stats.Instructions
			}
			return res, nil
		default:
			return res, fmt.Errorf("%s: stream status %q: %s", o.Text, rep.Status, rep.Error)
		}
	}
	return res, fmt.Errorf("%s: stream ended without a terminal line", o.Text)
}

// runOp executes and checks one op.
func runOp(ctx context.Context, d doer, o *op) (result, error) {
	res, err := execute(ctx, d, o)
	if err == nil {
		err = check(o, res.sols)
	}
	return res, err
}

// daemon is an in-process kcmd with daemon defaults (pool size
// GOMAXPROCS, warm off) serving on a loopback port.
type daemon struct {
	srv  *server.Server
	addr string
	done chan error
}

func startDaemon(programs map[string]string) (*daemon, error) {
	srv, err := server.New(server.Config{Programs: programs})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(l) }()
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// warm runs the workload's warm-up ops once each, in order, and
// requires every one to pass the oracle.
func warm(ctx context.Context, d doer, ops []op) error {
	for i := range ops {
		if _, err := runOp(ctx, d, &ops[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// setUp starts a daemon and runs the warm-up pass through one client
// connection; its duration is one setup_s sample.
func setUp(ctx context.Context, p plan) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(p.programs)
	if err != nil {
		return nil, 0, err
	}
	c := newHTTPDoer(d.addr)
	defer c.close()
	if err := warm(ctx, c, p.warmup); err != nil {
		return nil, 0, errors.Join(err, d.stop())
	}
	return d, time.Since(t0), nil
}

// loopStats is what one closed-loop client measured.
type loopStats struct {
	lat       []float64            // per completed op, microseconds
	byKind    map[string][]float64 // the same, per program and op kind
	attempted int
	failed    int
	instrs    uint64
	firstErr  error
}

// record adds one completed op's latency.
func (s *loopStats) record(o *op, us float64) {
	s.lat = append(s.lat, us)
	if s.byKind == nil {
		s.byKind = map[string][]float64{}
	}
	k := o.Program + "/" + string(o.Kind)
	s.byKind[k] = append(s.byKind[k], us)
}

func (s *loopStats) add(o loopStats) {
	s.lat = append(s.lat, o.lat...)
	for k, xs := range o.byKind {
		if s.byKind == nil {
			s.byKind = map[string][]float64{}
		}
		s.byKind[k] = append(s.byKind[k], xs...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.instrs += o.instrs
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// closedLoop runs one goroutine per generator until the deadline; each
// sends its next op only after the previous one's reply, on its own
// keep-alive connection. It returns the merged stats and the wall time
// from start until the last op completed.
func closedLoop(ctx context.Context, addr string, gens []generator, d time.Duration) (loopStats, time.Duration) {
	per := make([]loopStats, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for i, g := range gens {
		wg.Add(1)
		go func(st *loopStats, g generator) {
			defer wg.Done()
			c := newHTTPDoer(addr)
			defer c.close()
			for time.Now().Before(stop) && ctx.Err() == nil {
				o := g.next()
				t0 := time.Now()
				res, err := runOp(ctx, c, &o)
				el := time.Since(t0)
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.record(&o, float64(el.Nanoseconds())/1e3)
				st.instrs += res.instrs
			}
		}(&per[i], g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all loopStats
	for _, st := range per {
		all.add(st)
	}
	return all, elapsed
}
