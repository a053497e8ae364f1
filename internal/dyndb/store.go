package dyndb

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/term"
)

// Store binds one database to one machine: the single-session view of
// the dynamic database, used by the CLI, the differential tests and
// anything else that does not need a pooled fleet. Mutations go
// through the database and are installed onto the machine
// immediately; goals compile into a transient block above the delta
// and are truncated away before the next mutation or goal.
//
// A Store is not safe for concurrent use; the multi-tenant engine
// pool (internal/engine) is the concurrent front end.
type Store struct {
	db   *DB
	m    *machine.Machine
	boot machine.CodeMark // the machine's boot frontier, restored before each install
	view View
}

// NewStore boots a machine from the database's base image and
// materialises the current delta onto it.
func NewStore(db *DB, cfg machine.Config) (*Store, error) {
	m, err := machine.New(db.Image(), cfg)
	if err != nil {
		return nil, err
	}
	s := &Store{db: db, m: m, boot: m.Snapshot()}
	if s.view, err = db.Materialize(m); err != nil {
		return nil, err
	}
	return s, nil
}

// DB returns the underlying database.
func (s *Store) DB() *DB { return s.db }

// Machine returns the live machine, for counter inspection
// (ResetStats before a timed run, Result after). Mutating its code
// space behind the store's back voids the warranty.
func (s *Store) Machine() *machine.Machine { return s.m }

// sync brings the machine up to the database's current version. At
// that version already, only the transient goal block is truncated
// away; otherwise the machine is rolled back to its boot frontier and
// the whole delta materialised, diff-aware, so unchanged words cost
// nothing.
func (s *Store) sync() error {
	if s.view.Version == s.db.Version() {
		s.m.TruncateCode(s.view.Top)
		return nil
	}
	s.m.Rollback(s.boot)
	v, err := s.db.Materialize(s.m)
	if err != nil {
		return err
	}
	s.view = v
	return nil
}

// Assertz appends a clause and installs the rebuilt predicate.
func (s *Store) Assertz(cl term.Term) error {
	if _, err := s.db.Assertz(cl); err != nil {
		return err
	}
	return s.sync()
}

// Asserta prepends a clause and installs the rebuilt predicate.
func (s *Store) Asserta(cl term.Term) error {
	if _, err := s.db.Asserta(cl); err != nil {
		return err
	}
	return s.sync()
}

// Retract removes the first variant-equal clause and installs the
// rebuilt predicate; it reports whether a clause was removed.
func (s *Store) Retract(cl term.Term) (bool, error) {
	ok, _, err := s.db.Retract(cl)
	if err != nil || !ok {
		return ok, err
	}
	return true, s.sync()
}

// Reload replaces a predicate's whole chain in one rebuild.
func (s *Store) Reload(pi term.Indicator, clauses []term.Term) error {
	if _, err := s.db.Reload(pi, clauses); err != nil {
		return err
	}
	return s.sync()
}

// LoadGoal compiles ?- goal, links it against the current entry
// table, and loads it as the transient block above the delta. It
// returns the entry address to Begin at and the named-variable slots
// for QueryBindings. The block is dropped by the next mutation,
// LoadGoal or Sync.
func (s *Store) LoadGoal(goal term.Term) (uint32, map[term.Var]int, error) {
	if err := s.sync(); err != nil {
		return 0, nil, err
	}
	c := compiler.New(s.db.Syms())
	mod, err := c.CompileGoal(goal)
	if err != nil {
		return 0, nil, err
	}
	im, err := asm.LinkAt(mod, s.view.Top, s.view.Entries)
	if err != nil {
		return 0, nil, err
	}
	if _, err := s.m.LoadDyn(im.Code); err != nil {
		return 0, nil, err
	}
	entry, ok := im.Entries[compiler.QueryPI]
	if !ok {
		return 0, nil, fmt.Errorf("dyndb: goal block lost its entry point")
	}
	return entry, im.QueryVars, nil
}

// solveBudget is the per-slice instruction bound Solve runs under —
// the same hard bound one-shot core queries default to.
const solveBudget = 1_000_000_000

// Solve runs a goal to completion and collects up to max solutions
// (0 = all), each as its named-variable bindings. The final machine
// Result (of the last run slice — counters cover the whole
// enumeration since the previous ResetStats) is returned alongside.
func (s *Store) Solve(goal term.Term, max int) ([]map[term.Var]term.Term, machine.Result, error) {
	entry, vars, err := s.LoadGoal(goal)
	if err != nil {
		return nil, machine.Result{}, err
	}
	var out []map[term.Var]term.Term
	s.m.Begin(entry)
	for {
		st, err := s.m.RunFor(context.Background(), solveBudget)
		if err != nil {
			return out, machine.Result{}, err
		}
		if st == machine.Suspended {
			return out, machine.Result{}, fmt.Errorf("dyndb: %w: %d steps", machine.ErrStepBudget, uint64(solveBudget))
		}
		res := s.m.Result()
		if !res.Success {
			return out, res, nil
		}
		out = append(out, s.m.QueryBindings(vars))
		if max > 0 && len(out) >= max {
			return out, res, nil
		}
		if err := s.m.Redo(); err != nil {
			return out, res, err
		}
	}
}
