package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/term"
	"repro/internal/wire"
)

// Every request runs against a dynamic database over its program's one
// base image (static predicates compiled, dynamic predicates as
// stubs). A tenantless request runs against the program's seed: the
// base image plus the source's initial dynamic clauses, never mutated.
// Every tenant name clones the seed into a private copy-on-write
// delta. Thousands of tenants therefore share one boot image and one
// machine complement — only the clauses a tenant asserts are its own.
// Each goal is compiled once into a position-independent block
// (engine.Goal) that any lease links and loads above its machine's
// installed view.

// dynProg is one served program's state, built once in New.
type dynProg struct {
	seed    *dyndb.DB
	tenants map[string]*dyndb.DB // guarded by Server.dynMu
}

// loadProgram compiles a program's base image and seeds the database
// its tenantless requests run against.
func loadProgram(src string) (*dynProg, error) {
	prog, err := core.Load(src)
	if err != nil {
		return nil, err
	}
	im, ds, err := prog.BaseImage()
	if err != nil {
		return nil, err
	}
	seed, err := dyndb.New(im, ds.Order)
	if err != nil {
		return nil, err
	}
	for _, pi := range ds.Order {
		if cls := ds.Clauses[pi]; len(cls) > 0 {
			if _, err := seed.Reload(pi, cls); err != nil {
				return nil, fmt.Errorf("seeding %v: %w", pi, err)
			}
		}
	}
	return &dynProg{seed: seed, tenants: map[string]*dyndb.DB{}}, nil
}

// database resolves a request's program and returns the database the
// request runs against: the program's seed when tenant is empty, else
// the tenant's clone of the seed, made on first sight of the name.
func (s *Server) database(program, tenant string) (string, *dyndb.DB, error) {
	name, prog, err := s.resolveProgram(program)
	if err != nil {
		return "", nil, err
	}
	if tenant == "" {
		return name, prog.seed, nil
	}
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	db, ok := prog.tenants[tenant]
	if !ok {
		db = prog.seed.Clone()
		prog.tenants[tenant] = db
	}
	return name, db, nil
}

// tenantCount is the live tenant database count across programs, for
// stats.
func (s *Server) tenantCount() int {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	n := 0
	for _, prog := range s.progs {
		n += len(prog.tenants)
	}
	return n
}

// maxGoals bounds the compiled-goal cache, so a client varying goal
// text cannot grow the daemon without bound. A cached goal holds its
// compiled module and last linked block, about 11 KB for nrev of a
// 30-element list, so goals of that size fill the cache at ~11 MB.
const maxGoals = 1024

// goalKey identifies one compiled goal: a goal text against a named
// program.
type goalKey struct {
	program string
	goal    string
}

// goal returns the compiled goal for text over db's program, compiling
// it on first sight. At the bound one arbitrary entry is evicted;
// compile errors are not cached. The compile runs under goalMu: a
// first sight costs tens of microseconds, and only lookups arriving
// meanwhile wait for it.
func (s *Server) goal(program string, db *dyndb.DB, text string) (*engine.Goal, error) {
	key := goalKey{program: program, goal: text}
	s.goalMu.Lock()
	defer s.goalMu.Unlock()
	if g, ok := s.goals[key]; ok {
		return g, nil
	}
	t, err := parseGoal(text)
	if err != nil {
		return nil, err
	}
	// The seed and its clones share one symbol table, so the goal
	// serves every database of the program.
	g, err := engine.CompileGoal(db.Syms(), t)
	if err != nil {
		return nil, err
	}
	if len(s.goals) >= maxGoals {
		for k := range s.goals {
			delete(s.goals, k)
			break
		}
	}
	s.goals[key] = g
	return g, nil
}

// begin leases a session for one query request over its database.
func (s *Server) begin(ctx context.Context, req wire.QueryRequest) (*engine.Session, error) {
	program, db, err := s.database(req.Program, req.Tenant)
	if err != nil {
		return nil, err
	}
	g, err := s.goal(program, db, req.Goal)
	if err != nil {
		return nil, err
	}
	return s.pool.BeginGoal(ctx, db, g, engine.WithBudget(s.clampBudget(req.Budget)))
}

// parseGoal reads one goal term, tolerating a missing terminator.
func parseGoal(text string) (term.Term, error) {
	if !strings.HasSuffix(strings.TrimSpace(text), ".") {
		text += " ."
	}
	goal, err := reader.ParseTerm(text)
	if err != nil {
		return nil, fmt.Errorf("goal: %w", err)
	}
	return goal, nil
}

// parseClause reads one clause term for assert/retract.
func parseClause(text string) (term.Term, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("empty clause")
	}
	if !strings.HasSuffix(strings.TrimSpace(text), ".") {
		text += " ."
	}
	cl, err := reader.ParseTerm(text)
	if err != nil {
		return nil, fmt.Errorf("clause: %w", err)
	}
	return cl, nil
}

// mutationStatus maps a clause-store rejection onto an HTTP code:
// client mistakes (static target, malformed clause, bad code) are
// unprocessable, everything else is internal.
func mutationStatus(err error) int {
	var ce *machine.CodeError
	if errors.Is(err, dyndb.ErrStaticPred) || errors.Is(err, dyndb.ErrBadClause) || errors.As(err, &ce) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// handleMutation serves /v1/assert (retract false) and /v1/retract.
// Both bodies decode as an AssertRequest; a retract ignores Front.
func (s *Server) handleMutation(retract bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req wire.AssertRequest
		if !decodeBody(w, r, &req) {
			return
		}
		rep, code := s.mutate(req, retract)
		writeJSON(w, code, rep)
	}
}

// mutate is the writer-free body of assert and retract: it adds a
// clause to a tenant database, or removes the first variant-equal one
// and replies "no" when none matched. The machines are untouched here:
// pooled machines pick the new version up on their next lease.
func (s *Server) mutate(req wire.AssertRequest, retract bool) (wire.Reply, int) {
	if s.draining.Load() {
		return errorReply(errTableClosed), http.StatusServiceUnavailable
	}
	if req.Tenant == "" {
		verb := "assert"
		if retract {
			verb = "retract"
		}
		return errorReply(fmt.Errorf("%s needs a tenant", verb)), http.StatusBadRequest
	}
	cl, err := parseClause(req.Clause)
	if err != nil {
		return errorReply(err), http.StatusBadRequest
	}
	_, db, err := s.database(req.Program, req.Tenant)
	if err != nil {
		return errorReply(err), http.StatusBadRequest
	}
	var version uint64
	matched := true // an assert always adds its clause
	switch {
	case retract:
		matched, version, err = db.Retract(cl)
	case req.Front:
		version, err = db.Asserta(cl)
	default:
		version, err = db.Assertz(cl)
	}
	if err != nil {
		return errorReply(err), mutationStatus(err)
	}
	status := wire.StatusYes
	if !matched {
		status = wire.StatusNo
	}
	return wire.Reply{Status: status, Version: version}, http.StatusOK
}
