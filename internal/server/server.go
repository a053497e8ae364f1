// Package server is the kcmd network front-end: an HTTP/JSON daemon
// over the warm-machine pool. The KCM of the paper is a co-processor
// that serves logic queries to a host; this package is the modern
// analogue — one compiled image per program, each goal compiled once
// and linked above it, served to many network clients, with
// per-request deadlines and step budgets mapped onto the machine's
// resumable RunFor sessions, backpressure from budget-suspended
// sessions parked in a server-side table, and a graceful drain that
// finishes in-flight queries on SIGTERM.
//
// The handler discipline matters: a pooled machine must never be held
// across a network write (a slow client would hold a machine hostage;
// kcmlint enforces this). Handlers therefore delegate to writer-free
// run functions that lease a session, render solutions into wire
// values, and release or park the machine before the handler touches
// the ResponseWriter; the streaming path decouples through a channel
// between the enumerator goroutine (owns the machine) and the handler
// goroutine (owns the connection), which flushes whenever the channel
// runs empty.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/wire"
)

// Config describes a daemon: its programs and its limits.
type Config struct {
	// Programs maps a program name to its Prolog source text.
	Programs map[string]string
	// PoolSize caps the machines per program (<= 0 selects
	// GOMAXPROCS(0)): tenantless and tenant requests of a program share
	// them.
	PoolSize int
	// DefaultBudget is the per-slice step budget when a request
	// carries none (default 50M instructions). Every budget is clamped
	// to 1G instructions.
	DefaultBudget uint64
	// DefaultTimeout bounds a request's execution wall-clock time
	// when the request carries none (default 30s).
	DefaultTimeout time.Duration
	// IdleTimeout is how long a parked session may sit untouched
	// before the janitor evicts it (default 60s).
	IdleTimeout time.Duration
	// MaxSessions caps the session table (default 4x pool size).
	MaxSessions int
	// StateDir, when set, enables session suspend/resume across
	// daemon restarts: /v1/suspend serializes a parked session's
	// machine state to a blob file here, /v1/resume rebuilds it, and
	// Drain parks every live session the same way instead of running
	// it to completion.
	StateDir string
}

// Server serves the wire protocol over an engine.Pool.
type Server struct {
	cfg   Config
	pool  *engine.Pool
	progs map[string]*dynProg
	dynMu sync.Mutex // guards every program's tenants

	goalMu sync.Mutex
	goals  map[goalKey]*engine.Goal // at most maxGoals

	sessions *table
	draining atomic.Bool

	totMu  sync.Mutex
	totals wire.Totals

	httpSrv  *http.Server
	listener net.Listener
	janitor  chan struct{} // closed to stop the eviction loop
	wg       sync.WaitGroup
}

// New builds a server from cfg, compiling every program's base image
// and seeding its database.
func New(cfg Config) (*Server, error) {
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("server: no programs to serve")
	}
	if cfg.DefaultBudget == 0 {
		cfg.DefaultBudget = 50_000_000
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	pool := engine.New(engine.WithPoolSize(cfg.PoolSize))
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 4 * pool.Size()
	}
	progs := make(map[string]*dynProg, len(cfg.Programs))
	for name, src := range cfg.Programs {
		p, err := loadProgram(src)
		if err != nil {
			return nil, fmt.Errorf("server: program %q: %w", name, err)
		}
		progs[name] = p
	}
	return &Server{
		cfg:      cfg,
		pool:     pool,
		progs:    progs,
		goals:    make(map[goalKey]*engine.Goal),
		sessions: newTable(cfg.MaxSessions),
		janitor:  make(chan struct{}),
	}, nil
}

// Pool exposes the machine pool (stats, profiling aggregate).
func (s *Server) Pool() *engine.Pool { return s.pool }

// Handler returns the daemon's route table; it is also what Serve
// installs, so tests can drive the server through httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/next", s.handleNext)
	mux.HandleFunc("POST /v1/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/suspend", s.handleSuspend)
	mux.HandleFunc("POST /v1/resume", s.handleResume)
	mux.HandleFunc("POST /v1/assert", s.handleAssert)
	mux.HandleFunc("POST /v1/retract", s.handleRetract)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// Serve starts the eviction janitor and serves HTTP on l until Drain
// (or a listener error). It returns http.ErrServerClosed after a
// clean drain, mirroring net/http.
func (s *Server) Serve(l net.Listener) error {
	s.listener = l
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.wg.Add(1)
	go s.evictLoop()
	return s.httpSrv.Serve(l)
}

// Addr is the bound listener address (valid after Serve's listener is
// passed in; useful with ":0").
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// evictLoop reaps idle sessions until the janitor channel closes.
func (s *Server) evictLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.janitor:
			return
		case <-tick.C:
			for _, e := range s.sessions.evictIdle(s.cfg.IdleTimeout) {
				s.account(e.sess, false)
			}
		}
	}
}

// Drain shuts the daemon down gracefully: stop accepting new queries,
// wait for in-flight requests, then deal with every parked session so
// no accepted query is abandoned — serialized to the state directory
// when one is configured (the client resumes after restart with the
// session id as the handle), run to completion otherwise. Bounded by
// ctx; safe to call once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.cfg.StateDir != "" {
		s.parkAll()
	}
	for _, e := range s.sessions.drainAll(ctx) {
		s.account(e.sess, false)
	}
	close(s.janitor)
	s.wg.Wait()
	return err
}

// resolveProgram maps a request's program name (possibly empty, when
// the daemon serves exactly one program) to its state.
func (s *Server) resolveProgram(program string) (string, *dynProg, error) {
	if program == "" {
		if len(s.progs) == 1 {
			for name := range s.progs {
				program = name
			}
		} else {
			return "", nil, fmt.Errorf("several programs loaded; name one")
		}
	}
	prog, ok := s.progs[program]
	if !ok {
		return "", nil, fmt.Errorf("unknown program %q", program)
	}
	return program, prog, nil
}

// clampBudget applies the request -> default -> max budget policy. The
// max is the machine's own default step bound.
func (s *Server) clampBudget(req uint64) uint64 {
	b := req
	if b == 0 {
		b = s.cfg.DefaultBudget
	}
	return min(b, machine.DefaultBudget)
}

// runCtx derives the execution context for one request slice.
func (s *Server) runCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(ctx, d)
}

// account folds a finished session's counters into the daemon totals.
// delivered marks outcomes already counted per solution; the rest of
// the counters are cumulative per session, added exactly once when
// the session leaves the server.
func (s *Server) account(sess *engine.Session, errored bool) {
	res := sess.Result()
	s.totMu.Lock()
	defer s.totMu.Unlock()
	s.totals.Queries++
	s.totals.Solutions += uint64(sess.Delivered())
	if errored {
		s.totals.Errors++
	} else if sess.Delivered() == 0 {
		s.totals.Failures++
	}
	s.totals.Cycles += res.Stats.Cycles
	s.totals.Inferences += res.Stats.Inferences
	s.totals.GCCollections += res.GC.Collections
	s.totals.GCCycles += res.GC.Cycles
}

// counters renders a session-cumulative machine.Result on the wire.
func counters(res machine.Result) *wire.Counters {
	return &wire.Counters{
		Cycles:        res.Stats.Cycles,
		Instructions:  res.Stats.Instrs,
		Inferences:    res.Stats.Inferences,
		Millis:        res.Stats.Millis(),
		GCCollections: res.GC.Collections,
		GCCycles:      res.GC.Cycles,
	}
}

// bindings renders a solution's named variables.
func bindings(sol *core.Solution) map[string]string {
	if sol == nil || len(sol.Vars) == 0 {
		return nil
	}
	out := make(map[string]string, len(sol.Vars))
	for name, t := range sol.Bindings() {
		out[name] = t.String()
	}
	return out
}

// errorReply builds the terminal error body.
func errorReply(err error) wire.Reply {
	return wire.Reply{Status: wire.StatusError, Error: err.Error()}
}

// --- the four verbs ---

// handleQuery starts a query. It never touches a machine itself: the
// writer-free runQuery/streamQuery own the session, and this function
// only serializes their wire values onto the connection.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply(errTableClosed))
		return
	}
	if req.Stream {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		s.streamToWriter(ctx, cancel, w, req)
		return
	}
	rep, code := s.runQuery(r.Context(), req)
	writeJSON(w, code, rep)
}

// runQuery leases a session, runs the first slice, and either
// completes (releasing the machine) or parks the session for
// next/cancel. No network writes happen here.
func (s *Server) runQuery(ctx context.Context, req wire.QueryRequest) (wire.Reply, int) {
	runCtx, cancel := s.runCtx(ctx, req.TimeoutMS)
	defer cancel()
	sess, err := s.begin(runCtx, req)
	if err != nil {
		if errors.Is(err, machine.ErrCancelled) || errors.Is(err, machine.ErrDeadline) {
			// Admission control: every machine is leased and none
			// freed up before the deadline.
			return errorReply(err), http.StatusServiceUnavailable
		}
		s.totMu.Lock()
		s.totals.Queries++
		s.totals.Errors++
		s.totMu.Unlock()
		return errorReply(err), http.StatusBadRequest
	}
	ok := sess.Next(runCtx)
	return s.settle(sess, req, ok)
}

// settle turns a Next outcome into a wire reply, closing or parking
// the session. The request identifies the code environment (program,
// tenant, goal) recorded on the parked entry so /v1/suspend can
// serialize the session for a later daemon process.
func (s *Server) settle(sess *engine.Session, req wire.QueryRequest, ok bool) (wire.Reply, int) {
	keep := req.Enumerate
	switch {
	case ok:
		sol := sess.Solution()
		rep := wire.Reply{
			Status:    wire.StatusYes,
			Bindings:  bindings(sol),
			Solutions: sess.Delivered(),
			Stats:     counters(sol.Result),
		}
		if keep {
			e, err := s.sessions.add(req.Program, req.Tenant, req.Goal, sess)
			if err != nil {
				sess.Close()
				s.account(sess, false)
				rep.Error = err.Error() // delivered, but not resumable
				return rep, http.StatusOK
			}
			rep.Session = e.id
			return rep, http.StatusOK
		}
		sess.Close()
		s.account(sess, false)
		return rep, http.StatusOK
	case sess.Suspended() || resumableErr(sess):
		// Budget or request deadline ran out mid-search: park the
		// session; the client resumes with next or gives up with
		// cancel. This is the backpressure path.
		e, err := s.sessions.add(req.Program, req.Tenant, req.Goal, sess)
		if err != nil {
			sess.Close()
			s.account(sess, true)
			return errorReply(fmt.Errorf("suspended and cannot park: %w", err)),
				http.StatusServiceUnavailable
		}
		return wire.Reply{
			Status:    wire.StatusSuspended,
			Session:   e.id,
			Solutions: sess.Delivered(),
		}, http.StatusOK
	case sess.Err() != nil:
		err := sess.Err()
		sess.Close()
		s.account(sess, true)
		return errorReply(err), http.StatusUnprocessableEntity
	default:
		// Search exhausted: no (more) solutions.
		rep := wire.Reply{
			Status:    wire.StatusNo,
			Solutions: sess.Delivered(),
			Stats:     counters(sess.Result()),
		}
		sess.Close()
		s.account(sess, false)
		return rep, http.StatusOK
	}
}

// resumableErr reports a context-shaped session error (deadline or
// cancellation with the machine intact).
func resumableErr(sess *engine.Session) bool {
	err := sess.Err()
	return err != nil &&
		(errors.Is(err, machine.ErrDeadline) || errors.Is(err, machine.ErrCancelled))
}

// handleNext resumes a parked session by one slice.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	var req wire.NextRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, code := s.runNext(r.Context(), req)
	writeJSON(w, code, rep)
}

// runNext is the writer-free body of next-solution.
func (s *Server) runNext(ctx context.Context, req wire.NextRequest) (wire.Reply, int) {
	e, ok := s.sessions.get(req.Session)
	if !ok {
		if r, known := s.sessions.reasonFor(req.Session); known {
			return reasonReply(r, req.Session)
		}
		return errorReply(fmt.Errorf("unknown session %q", req.Session)), http.StatusNotFound
	}
	e.ops.Lock()
	defer e.ops.Unlock()
	if e.done {
		// Lost the race with cancel, eviction, suspend or drain; the
		// reason tells the client whether its own action closed the
		// session (409) or the server took it away (410).
		return doneReply(e, req.Session)
	}
	e.touch()
	if req.Budget > 0 {
		e.sess.SetBudget(s.clampBudget(req.Budget))
	}
	runCtx, cancel := s.runCtx(ctx, req.TimeoutMS)
	defer cancel()
	ok = e.sess.Next(runCtx)
	if ok || e.sess.Suspended() || resumableErr(e.sess) {
		e.touch()
		rep := wire.Reply{Session: e.id, Solutions: e.sess.Delivered()}
		if ok {
			sol := e.sess.Solution()
			rep.Status = wire.StatusYes
			rep.Bindings = bindings(sol)
			rep.Stats = counters(sol.Result)
		} else {
			rep.Status = wire.StatusSuspended
		}
		return rep, http.StatusOK
	}
	// Terminal: exhausted or faulted — unpark and release the machine.
	e.done = true
	s.sessions.retire(e)
	if err := e.sess.Err(); err != nil {
		e.sess.Close()
		s.account(e.sess, true)
		return errorReply(err), http.StatusUnprocessableEntity
	}
	rep := wire.Reply{
		Status:    wire.StatusNo,
		Solutions: e.sess.Delivered(),
		Stats:     counters(e.sess.Result()),
	}
	e.sess.Close()
	s.account(e.sess, false)
	return rep, http.StatusOK
}

// doneReply maps a closed entry's reason onto the typed HTTP reply
// for a request that lost the close race. Callers hold e.ops.
func doneReply(e *entry, id string) (wire.Reply, int) {
	return reasonReply(e.reason, id)
}

// reasonReply renders the typed reply for a session that left the
// table: 409 for the client's own cancel, 410 when the server took it
// away (evicted, drained, or parked to disk — the latter with the
// resume handle).
func reasonReply(reason doneReason, id string) (wire.Reply, int) {
	switch reason {
	case reasonCancelled:
		return errorReply(fmt.Errorf("session %q cancelled", id)), http.StatusConflict
	case reasonEvicted:
		return errorReply(fmt.Errorf("session %q evicted after idle timeout", id)), http.StatusGone
	case reasonDrained:
		return errorReply(fmt.Errorf("session %q completed by shutdown drain", id)), http.StatusGone
	case reasonParked:
		rep := errorReply(fmt.Errorf("session %q suspended to disk; resume with its handle", id))
		rep.Handle = id
		return rep, http.StatusGone
	default:
		return errorReply(fmt.Errorf("session %q closed", id)), http.StatusNotFound
	}
}

// handleCancel discards a parked session.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req wire.CancelRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, ok := s.sessions.get(req.Session)
	if !ok {
		if r, known := s.sessions.reasonFor(req.Session); known {
			rep, code := reasonReply(r, req.Session)
			writeJSON(w, code, rep)
			return
		}
		writeJSON(w, http.StatusNotFound,
			errorReply(fmt.Errorf("unknown session %q", req.Session)))
		return
	}
	e.ops.Lock()
	already := e.done
	if !e.done {
		e.done = true
		e.reason = reasonCancelled
		e.sess.Close()
	}
	e.ops.Unlock()
	s.sessions.retire(e)
	if !already {
		s.account(e.sess, false)
	}
	writeJSON(w, http.StatusOK, wire.Reply{
		Status:    wire.StatusCancelled,
		Session:   e.id,
		Solutions: e.sess.Delivered(),
	})
}

// handleStats is the /metrics-style snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	s.sessions.mu.Lock()
	ss := wire.SessionStats{
		Active:  len(s.sessions.entries),
		Created: s.sessions.created,
		Evicted: s.sessions.evicted,
		Drained: s.sessions.drained,
		Parked:  s.sessions.parked,
	}
	s.sessions.mu.Unlock()
	s.totMu.Lock()
	tot := s.totals
	s.totMu.Unlock()
	names := make([]string, 0, len(s.progs))
	for name := range s.progs {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, wire.StatsReply{
		Programs: names,
		Pool: wire.PoolStats{
			Size: ps.Size, Images: ps.Images, Built: ps.Built,
			Idle: ps.Idle, InUse: ps.InUse,
		},
		Sessions: ss,
		Totals:   tot,
		Tenants:  s.tenantCount(),
		Draining: s.draining.Load(),
	})
}

// --- streaming ---

// streamToWriter runs the enumeration in a separate goroutine and
// writes its wire values onto the connection with writeLines. The
// enumerator owns the machine; the handler goroutine owns the network.
func (s *Server) streamToWriter(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, req wire.QueryRequest) {
	// The buffer lets the enumerator run up to 16 lines ahead of the
	// writer, which sends what has queued up as one burst.
	lines := make(chan wire.Reply, 16)
	go s.streamQuery(ctx, req, lines)
	writeLines(w, lines, cancel)
}

// writeLines copies lines onto w as NDJSON until the sender closes
// the channel. It flushes after a yes line only when no further line
// is queued, so a fast enumeration leaves in one or a few writes
// while a slow one still reaches the client line by line: nothing is
// held back while the next solution is being computed. The terminal
// done or error line is never flushed here; it leaves when the handler
// returns and net/http ends the response. net/http's response
// buffers write through whenever they fill, which bounds what a
// producer outrunning the writer can leave unwritten. A write failure
// cancels the enumerator and drains the channel so the session is
// released.
func writeLines(w http.ResponseWriter, lines <-chan wire.Reply, cancel context.CancelFunc) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for rep := range lines {
		if err := enc.Encode(rep); err != nil {
			cancel() // client went away; unblock the enumerator
			for range lines {
			}
			return
		}
		if flusher != nil && rep.Status == wire.StatusYes && len(lines) == 0 {
			flusher.Flush()
		}
	}
}

// streamQuery enumerates every solution (up to req.Limit) into the
// lines channel and closes it. It holds the session for the whole
// request but never sees the connection.
func (s *Server) streamQuery(ctx context.Context, req wire.QueryRequest, lines chan<- wire.Reply) {
	defer close(lines)
	runCtx, cancel := s.runCtx(ctx, req.TimeoutMS)
	defer cancel()
	sess, err := s.begin(runCtx, req)
	if err != nil {
		if !errors.Is(err, machine.ErrCancelled) && !errors.Is(err, machine.ErrDeadline) {
			s.totMu.Lock()
			s.totals.Queries++
			s.totals.Errors++
			s.totMu.Unlock()
		}
		s.send(ctx, lines, errorReply(err))
		return
	}
	defer func() {
		errored := sess.Err() != nil && !resumableErr(sess)
		sess.Close()
		s.account(sess, errored)
	}()
	for {
		if sess.Next(runCtx) {
			sol := sess.Solution()
			ok := s.send(ctx, lines, wire.Reply{
				Status:    wire.StatusYes,
				Bindings:  bindings(sol),
				Solutions: sess.Delivered(),
			})
			if !ok {
				return
			}
			if req.Limit > 0 && sess.Delivered() >= req.Limit {
				break
			}
			continue
		}
		if sess.Suspended() {
			// Budget slices keep the loop interruptible; streaming
			// rides straight into the next slice.
			continue
		}
		if err := sess.Err(); err != nil {
			s.send(ctx, lines, errorReply(err))
			return
		}
		break // exhausted
	}
	s.send(ctx, lines, wire.Reply{
		Status:    wire.StatusDone,
		Solutions: sess.Delivered(),
		Stats:     counters(sess.Result()),
	})
}

// send delivers one line unless the writer has gone away.
func (s *Server) send(ctx context.Context, lines chan<- wire.Reply, rep wire.Reply) bool {
	select {
	case lines <- rep:
		return true
	case <-ctx.Done():
		return false
	}
}

// maxBodyBytes caps a request body. Every request is a small JSON
// object (a goal, a clause, a session handle), so 1 MiB leaves ample
// room while a client cannot make the daemon read without bound.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v. On failure it
// writes the error reply — 413 when the body exceeds maxBodyBytes,
// 400 for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorReply(fmt.Errorf("bad request: %w", err)))
	return false
}

// writeJSON writes one JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The client went away mid-body; nothing to do.
		_ = err
	}
}
