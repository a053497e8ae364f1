package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// The session table is where the daemon parks budget-suspended and
// mid-enumeration queries between requests. Each entry owns one
// engine.Session — and with it one pooled machine — so the table's
// size bounds how many machines the network side can hold away from
// the pool: that, plus the pool's blocking acquire, is the server's
// backpressure. Every entry leaves through Server.end: a terminal
// next, a cancel, the idle janitor (so an abandoned client cannot
// strand a machine forever), a suspend to disk, or the shutdown drain,
// which parks each remaining session to disk or closes it.

// errTableClosed rejects parking attempts once a drain has begun.
var errTableClosed = errors.New("server: draining, not accepting new sessions")

// errTableFull rejects parking attempts beyond the configured cap.
var errTableFull = errors.New("server: session table full")

// Why a session left the table. A handler that loses the race against
// the janitor, a cancel, a drain or a suspend finds done set and maps
// the reason onto a typed HTTP status, so the client can tell "you
// cancelled this" (409, don't retry) from "the server took it away"
// (410, re-issue the query or resume the parked handle).
type doneReason int

const (
	reasonNone      doneReason = iota
	reasonCancelled            // client cancel
	reasonEvicted              // idle janitor
	reasonDrained              // closed by the shutdown drain
	reasonParked               // serialized to the state directory
)

// entry is one parked session. ops serializes the session (Next,
// Close) across request handlers, the janitor and the drain; done
// marks the session closed so a lock loser does not touch a released
// machine, and reason (guarded by ops) says why.
type entry struct {
	id       string
	program  string
	tenant   string
	goal     string
	ops      sync.Mutex
	sess     *engine.Session
	done     bool
	reason   doneReason
	lastUsed atomic.Int64 // unix nanos of the last request touch
}

// touch timestamps the entry against idle eviction.
func (e *entry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// table is the id -> entry map plus its lifecycle counters. The map
// lock is never held while an entry's ops lock is taken. max is
// positive: New rejects a negative cap and defaults a zero one.
type table struct {
	mu      sync.Mutex
	entries map[string]*entry
	// tombs remembers why recently-retired sessions left the table,
	// so a request racing (or trailing) an evict, cancel, drain or
	// suspend gets the typed 409/410 answer instead of a bare 404.
	tombs  map[string]doneReason
	closed bool
	max    int

	created uint64
	evicted uint64
	drained uint64
	parked  uint64
}

func newTable(max int) *table {
	return &table{
		entries: make(map[string]*entry),
		tombs:   make(map[string]doneReason),
		max:     max,
	}
}

// add parks a session and returns its new entry. program and tenant
// identify the code environment so the session can be serialized to
// disk and rebuilt by a later daemon process.
func (t *table) add(program, tenant, goal string, sess *engine.Session) (*entry, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	e := &entry{id: id, program: program, tenant: tenant, goal: goal, sess: sess}
	e.touch()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errTableClosed
	}
	if len(t.entries) >= t.max {
		return nil, errTableFull
	}
	t.entries[id] = e
	t.created++
	return e, nil
}

// get looks an entry up and timestamps it in the same critical
// section (touch-then-evict atomicity: a request that found the entry
// has already refreshed it before the janitor's cutoff re-check under
// e.ops can run, so an actively-used session is never evicted between
// lookup and lock). For an id not in the table it returns the reason
// its tombstone recorded, reasonNone when there is none.
func (t *table) get(id string) (*entry, doneReason, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return nil, t.tombs[id], false
	}
	e.touch()
	return e, reasonNone, true
}

// retire drops the entry from the map (the caller has closed or
// suspended the session and set e.reason under e.ops), counts it under
// its reason, and leaves a typed tombstone when there is a reason worth
// reporting. Tombstones are capped; a full set is dropped wholesale —
// after 4096 retires a stale client degrades from a typed 409/410 to a
// plain 404, which is still correct, just less helpful.
func (t *table) retire(e *entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, e.id)
	switch e.reason {
	case reasonNone:
		return
	case reasonEvicted:
		t.evicted++
	case reasonDrained:
		t.drained++
	case reasonParked:
		t.parked++
	}
	if len(t.tombs) >= 4096 {
		clear(t.tombs)
	}
	t.tombs[e.id] = e.reason
}

// active is the number of parked sessions.
func (t *table) active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// snapshot returns the current entries, for the eviction scan.
func (t *table) snapshot() []*entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	return out
}

// shut stops the table taking new sessions and returns the ones parked
// in it, for the drain to end.
func (t *table) shut() []*entry {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.snapshot()
}

// newSessionID mints an unguessable 16-hex-digit session id.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
