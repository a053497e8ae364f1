// Package wire defines the kcmd query protocol: the JSON request and
// response bodies exchanged between the daemon (internal/server) and
// its clients (internal/client). It is deliberately dependency-free —
// the wire format is the system's stable public face, the part that
// must outlive the runtime underneath it (the SICStus lesson: a
// stable external query API is what lets the engine keep changing).
//
// The protocol is one endpoint per verb:
//
//	POST /v1/query    QueryRequest   -> Reply (or an NDJSON stream)
//	POST /v1/next     NextRequest    -> Reply
//	POST /v1/cancel   CancelRequest  -> Reply
//	POST /v1/suspend  SuspendRequest -> Reply (status "parked" + handle)
//	POST /v1/resume   ResumeRequest  -> Reply (status "suspended" + session)
//	POST /v1/assert   AssertRequest  -> Reply
//	POST /v1/retract  RetractRequest -> Reply
//	GET  /v1/stats                   -> StatsReply
//
// Queries carrying a Tenant name run against that tenant's dynamic
// database: a private copy-on-write delta (the clauses the tenant has
// asserted) over the program's shared base image. Assert and retract
// mutate the delta; the empty tenant name is the shared static
// program, which assert/retract cannot touch.
//
// A query either completes within the request (status "yes"/"no"), or
// parks a budget-suspended session server-side (status "suspended"
// plus a session id) which the client drives with next/cancel. With
// "stream" set, the response is chunked application/x-ndjson: one
// Reply line per solution, then a terminal line whose Status is
// "done" (with the final counters) or "error".
//
// Suspend serializes a parked session's full machine state to the
// daemon's state directory and returns a durable handle (status
// "parked"); resume rebuilds it — in the same daemon or a restarted
// one — as a fresh parked session driven with next/cancel as usual.
// When the daemon has a state directory, a SIGTERM drain parks every
// live session the same way instead of running it to completion, each
// under its session id as the handle, so clients resume exactly where
// they left off after the restart.
package wire

// Status values carried by Reply.Status.
const (
	StatusYes       = "yes"       // a solution; bindings populated
	StatusNo        = "no"        // search exhausted without (more) solutions
	StatusSuspended = "suspended" // step budget or request deadline hit; resume with next
	StatusDone      = "done"      // terminal stream summary line
	StatusCancelled = "cancelled" // session closed by cancel
	StatusParked    = "parked"    // session serialized to disk; Handle resumes it
	StatusError     = "error"     // Error holds the message
)

// QueryRequest starts a query against a loaded program.
type QueryRequest struct {
	// Program names one of the daemon's loaded programs. It may be
	// empty when the daemon serves exactly one program.
	Program string `json:"program,omitempty"`
	// Goal is the query text, e.g. "nrev([1,2,3], R).".
	Goal string `json:"goal"`
	// Tenant selects a per-tenant dynamic database layered over the
	// program (created on first use). Empty runs the shared static
	// program.
	Tenant string `json:"tenant,omitempty"`
	// Enumerate keeps the session open after the first solution so
	// the client can drive it with next-solution requests.
	Enumerate bool `json:"enumerate,omitempty"`
	// Stream switches the response to NDJSON: every solution as its
	// own line within this one request.
	Stream bool `json:"stream,omitempty"`
	// Limit bounds a streamed enumeration (0 = all solutions).
	Limit int `json:"limit,omitempty"`
	// Budget bounds each execution slice to n simulated instructions
	// (0 = server default). Exhausting it suspends the session rather
	// than failing the query.
	Budget uint64 `json:"budget,omitempty"`
	// TimeoutMS bounds the request's execution wall-clock time (0 =
	// server default). Hitting it suspends the session.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// NextRequest resumes an enumeration: the next solution of a parked
// session, or the continuation of a suspended slice.
type NextRequest struct {
	Session string `json:"session"`
	// Budget optionally replaces the session's per-slice budget.
	Budget    uint64 `json:"budget,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// CancelRequest discards a parked session.
type CancelRequest struct {
	Session string `json:"session"`
}

// SuspendRequest serializes a parked session — machine state, solution
// count, step budget — into the daemon's state directory. The session
// leaves the table (its machine returns to the pool) and the reply's
// Handle names the on-disk snapshot for a later resume, possibly by a
// different daemon process serving the same programs.
type SuspendRequest struct {
	Session string `json:"session"`
}

// ResumeRequest rebuilds a suspended session from its handle. The
// enumeration continues exactly where it was parked: same remaining
// solutions, same simulated counters. Resuming a tenant session
// requires the tenant database to be at the version the snapshot was
// taken from; any mutation since fails the resume.
type ResumeRequest struct {
	Handle string `json:"handle"`
	// Budget optionally replaces the parked per-slice budget.
	Budget    uint64 `json:"budget,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// AssertRequest adds a clause to a tenant's dynamic database. The
// clause must belong to a predicate the program declares dynamic (or
// one unknown to the program, declared on first assert); asserting
// into a static predicate is rejected.
type AssertRequest struct {
	Program string `json:"program,omitempty"`
	Tenant  string `json:"tenant"`
	// Clause is Prolog text: a fact "color(red)" or a rule
	// "likes(X) :- color(X)". The terminating period is optional.
	Clause string `json:"clause"`
	// Front prepends (asserta) instead of appending (assertz).
	Front bool `json:"front,omitempty"`
}

// RetractRequest removes the first clause of the tenant's database
// that is a variant of Clause (equal up to variable renaming). The
// reply Status is "yes" when a clause was removed, "no" when none
// matched.
type RetractRequest struct {
	Program string `json:"program,omitempty"`
	Tenant  string `json:"tenant"`
	Clause  string `json:"clause"`
}

// Counters is the per-query slice of the machine's simulated
// statistics, cumulative across an enumeration.
type Counters struct {
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	Inferences    uint64  `json:"inferences"`
	Millis        float64 `json:"millis"` // simulated, at 80 ns/cycle
	GCCollections uint64  `json:"gc_collections,omitempty"`
	GCCycles      uint64  `json:"gc_cycles,omitempty"`
}

// Reply is the response body of query, next and cancel — and, in a
// stream, every NDJSON line.
type Reply struct {
	Status string `json:"status"`
	// Session identifies a parked enumeration (present when the
	// server kept the query alive for next/cancel).
	Session string `json:"session,omitempty"`
	// Handle names an on-disk session snapshot (status "parked");
	// pass it to resume, in this daemon or its successor.
	Handle string `json:"handle,omitempty"`
	// Bindings maps query variable names to rendered terms.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Solutions counts solutions delivered so far (stream summary and
	// suspended replies).
	Solutions int       `json:"solutions,omitempty"`
	Stats     *Counters `json:"stats,omitempty"`
	Error     string    `json:"error,omitempty"`
	// Version is the tenant database version after an assert or
	// retract (monotone per tenant; 0 on non-mutating replies).
	Version uint64 `json:"version,omitempty"`
}

// PoolStats mirrors engine.PoolStats on the wire.
type PoolStats struct {
	Size   int `json:"size"`
	Images int `json:"images"`
	Built  int `json:"built"`
	Idle   int `json:"idle"`
	InUse  int `json:"in_use"`
}

// SessionStats counts the server's session-table activity.
type SessionStats struct {
	Active  int    `json:"active"`
	Created uint64 `json:"created"`
	Evicted uint64 `json:"evicted"` // idle sessions reaped by the janitor
	Drained uint64 `json:"drained"` // suspended sessions completed at shutdown
	Parked  uint64 `json:"parked"`  // sessions serialized to the state directory
}

// Totals aggregates the simulated work the daemon has served.
type Totals struct {
	Queries         uint64 `json:"queries"`
	Solutions       uint64 `json:"solutions"`
	Failures        uint64 `json:"failures"` // goals that exhausted with no solution
	Errors          uint64 `json:"errors"`   // compile or machine faults
	Cycles          uint64 `json:"cycles"`
	Inferences      uint64 `json:"inferences"`
	GCCollections   uint64 `json:"gc_collections"`
	GCCycles        uint64 `json:"gc_cycles"`
	ProfiledPredCnt int    `json:"profiled_predicates,omitempty"`
}

// StatsReply is the /v1/stats body.
type StatsReply struct {
	Programs []string     `json:"programs"`
	Pool     PoolStats    `json:"pool"`
	Sessions SessionStats `json:"sessions"`
	Totals   Totals       `json:"totals"`
	// Tenants counts the live per-tenant databases across programs.
	Tenants  int  `json:"tenants,omitempty"`
	Draining bool `json:"draining"`
}
