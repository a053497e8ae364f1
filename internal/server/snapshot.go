package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/wire"
)

// Session park-to-disk: the wire face of the snapshot subsystem. A
// parked session's machine state is already position-independent (the
// blob carries live ranges, cache residency and every counter, keyed
// to the code image by content hash), so the server only has to
// record, next to the blob, how to rebuild the code environment: the
// program name, the goal text, and the tenant if any. A resuming
// daemon — this process or its successor after a restart — recompiles
// the same program and goal over the same database (the tenant's, or
// the program's seed), and the blob's image hash proves the
// reconstruction produced the very bytes the session was running
// before any state lands on a machine.

// envelope is the on-disk form of one suspended session: the code
// environment identity plus the machine snapshot blob (base64 in the
// JSON encoding).
type envelope struct {
	Program string `json:"program"`
	Tenant  string `json:"tenant,omitempty"`
	Goal    string `json:"goal"`
	Blob    []byte `json:"blob"`
}

// stateFile maps a handle onto its snapshot path, refusing anything
// but the 16-hex-digit session ids the server mints so a handle can
// never traverse outside StateDir.
func (s *Server) stateFile(handle string) (string, error) {
	if len(handle) != 16 {
		return "", fmt.Errorf("bad handle %q", handle)
	}
	for _, c := range handle {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("bad handle %q", handle)
		}
	}
	return filepath.Join(s.cfg.StateDir, handle+".snap"), nil
}

// writeEnvelope persists one suspended session under its handle.
func (s *Server) writeEnvelope(handle string, env envelope) error {
	path, err := s.stateFile(handle)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o700); err != nil {
		return err
	}
	buf, err := json.Marshal(env)
	if err != nil {
		return err
	}
	// Write-then-rename so a crash mid-write never leaves a torn
	// envelope under a resumable name.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readEnvelope loads a handle's envelope; ok is false when no such
// snapshot exists.
func (s *Server) readEnvelope(handle string) (envelope, bool, error) {
	var env envelope
	path, err := s.stateFile(handle)
	if err != nil {
		return env, false, err
	}
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return env, false, nil
	}
	if err != nil {
		return env, false, err
	}
	if err := json.Unmarshal(buf, &env); err != nil {
		return env, false, fmt.Errorf("corrupt snapshot %q: %w", handle, err)
	}
	return env, true, nil
}

// errNoStateDir refuses suspend and resume on a daemon started
// without a state directory.
var errNoStateDir = errors.New("daemon has no state directory (start kcmd with -state)")

// handleSuspend serializes a parked session to the state directory.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	var req wire.SuspendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, code := s.runSuspend(req)
	writeJSON(w, code, rep)
}

// runSuspend is the writer-free body of suspend. The session leaves
// the table — its machine goes back to the pool — and the reply's
// handle (the session id) names the snapshot for /v1/resume.
func (s *Server) runSuspend(req wire.SuspendRequest) (wire.Reply, int) {
	if s.cfg.StateDir == "" {
		return errorReply(errNoStateDir), http.StatusNotImplemented
	}
	e, rep, code := s.lookup(req.Session)
	if e == nil {
		return rep, code
	}
	defer e.ops.Unlock()
	if err := s.park(e, reasonNone); err != nil {
		if !e.done {
			// Suspend refused: the enumeration already ended. The
			// session stays in the table for a final next/cancel.
			return errorReply(err), http.StatusUnprocessableEntity
		}
		return errorReply(err), http.StatusInternalServerError
	}
	return wire.Reply{Status: wire.StatusParked, Handle: e.id, Solutions: e.sess.Delivered()}, http.StatusOK
}

// park is the one path to disk: it suspends e's session, writes the
// envelope under the session id and ends the entry as parked. A
// session that refuses to suspend stays in the table, and park returns
// the refusal. A failed write still ends the entry, since Suspend has
// released the machine, with reason lost: reasonNone from /v1/suspend,
// so no tombstone offers a handle that /v1/resume could not find, and
// reasonDrained from the drain. The caller holds e.ops and has seen
// e.done unset.
func (s *Server) park(e *entry, lost doneReason) error {
	blob, err := e.sess.Suspend()
	if err != nil {
		return err
	}
	err = s.writeEnvelope(e.id, envelope{
		Program: e.program, Tenant: e.tenant, Goal: e.goal, Blob: blob,
	})
	reason := reasonParked
	if err != nil {
		reason = lost
	}
	s.end(e, reason, false)
	return err
}

// handleResume rebuilds a suspended session from its on-disk handle
// and parks it in the table, ready for /v1/next — the continuation is
// byte-identical to a session that was never suspended. One-shot: the
// snapshot file is consumed by a successful resume.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	var req wire.ResumeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply(errTableClosed))
		return
	}
	if s.cfg.StateDir == "" {
		writeJSON(w, http.StatusNotImplemented, errorReply(errNoStateDir))
		return
	}
	env, ok, err := s.readEnvelope(req.Handle)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply(err))
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorReply(fmt.Errorf("unknown handle %q", req.Handle)))
		return
	}
	runCtx, cancel := s.runCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	program, db, err := s.database(env.Program, env.Tenant)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorReply(err))
		return
	}
	g, err := s.goal(program, db, env.Goal)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorReply(err))
		return
	}
	sess, err := s.pool.ResumeGoal(runCtx, db, g, env.Blob, engine.WithBudget(s.clampBudget(req.Budget)))
	if err != nil {
		writeJSON(w, resumeStatus(err), errorReply(err))
		return
	}
	e, err := s.sessions.add(env.Program, env.Tenant, env.Goal, sess)
	if err != nil {
		sess.Close()
		s.account(sess, false)
		writeJSON(w, http.StatusServiceUnavailable,
			errorReply(fmt.Errorf("resumed but cannot park: %w", err)))
		return
	}
	if path, err := s.stateFile(req.Handle); err == nil {
		os.Remove(path)
	}
	writeJSON(w, http.StatusOK, wire.Reply{
		Status:    wire.StatusSuspended,
		Session:   e.id,
		Solutions: sess.Delivered(),
	})
}

// resumeStatus maps an engine resume failure onto an HTTP code: a
// stale tenant delta is a conflict the client can observe (the
// database moved on), admission-control timeouts are 503, and
// everything else — corrupt blob, image or config mismatch — is
// unprocessable.
func resumeStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrStaleDelta):
		return http.StatusConflict
	case ctxShaped(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}
