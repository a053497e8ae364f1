package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/term"
)

// Tenant-keyed leases: copy-on-write image sharing over the pool.
//
// Every tenant's dynamic database (internal/dyndb) layers a private
// delta — rebuilt predicate blocks plus retargeted call sites — above
// one immutable base image. The pool keys its machines by that shared
// base image, so N tenants cost one image and one machine complement,
// not N of each: BeginDyn leases any pooled machine and makes it the
// requesting tenant's by rolling back whatever delta it carries
// (restoring the boot frontier and patched words) and installing the
// tenant's whole delta above the base.
//
// The database compacts its tail as it mutates, so that install costs
// O(live clauses) however long the tenant's mutation history; and all
// delta writes are diff-aware (machine.LoadDyn/PatchDyn skip words
// already holding their value), so a tenant switch rewrites only the
// words where the two deltas differ. A machine still carrying the
// requesting tenant at its current version skips the install
// altogether — acquire prefers such a machine, whose simulated caches
// are also warm for the tenant's code.

// dynState tracks what a pooled machine currently carries: the boot
// mark to roll back to, and the database (with the view version) whose
// delta is installed. It is only ever touched by the machine's current
// lessee; the map holding it is guarded by Pool.mu.
type dynState struct {
	mark machine.CodeMark
	db   *dyndb.DB
	view dyndb.View
}

// dynFor returns (creating on first lease) the machine's dynState.
// The machine must be leased by the caller, and must sit at its boot
// frontier on first call — both guaranteed by acquireDyn, which
// creates states for machines it builds and for fault replacements
// (built by release at the boot frontier).
func (p *Pool) dynFor(m *machine.Machine) *dynState {
	p.mu.Lock()
	st := p.dyn[m]
	p.mu.Unlock()
	if st != nil {
		return st
	}
	st = &dynState{mark: m.Snapshot()}
	p.mu.Lock()
	p.dyn[m] = st
	p.mu.Unlock()
	return st
}

// install brings a leased machine to the database's current version.
// A machine already carrying this version only drops the previous goal
// block; any other — another tenant's, or this tenant's at an older
// version — is rolled back to the boot image and the delta
// materialised. On error the machine is scrubbed back to its boot
// state so it can serve the next lease.
func (p *Pool) install(m *machine.Machine, st *dynState, db *dyndb.DB) error {
	if st.db == db && st.view.Version == db.Version() {
		m.TruncateCode(st.view.Top)
		return nil
	}
	m.Rollback(st.mark)
	view, err := db.Materialize(m)
	if err != nil {
		p.scrub(m, st)
		return err
	}
	st.db, st.view = db, view
	return nil
}

// scrub returns a machine whose install failed midway to the boot
// image, forgetting the tenant association.
func (p *Pool) scrub(m *machine.Machine, st *dynState) {
	m.Rollback(st.mark)
	st.db = nil
	st.view = dyndb.View{}
}

// BeginDyn leases a pooled machine for one tenant's query: the goal is
// compiled and linked against the tenant's current entry table, the
// tenant's delta is installed over the shared base image, and the goal
// block is loaded transiently above it. The returned session behaves
// exactly like Begin's — enumerate, suspend on budget, resume, Close
// to release — and Close leaves the delta in place, so the next lease
// of the same tenant on that machine reuses it for free.
func (p *Pool) BeginDyn(ctx context.Context, db *dyndb.DB, goal term.Term, options ...Option) (*Session, error) {
	var o opts
	for _, opt := range options {
		opt(&o)
	}
	budget := o.budget
	if budget == 0 {
		budget = p.cfg.MaxSteps
	}
	if budget == 0 {
		budget = 1_000_000_000
	}
	c := compiler.New(db.Syms())
	mod, err := c.CompileGoal(goal)
	if err != nil {
		return nil, err
	}
	m, ip, err := p.acquireDyn(ctx, db)
	if err != nil {
		return nil, err
	}
	st := p.dynFor(m)
	m.Reset()
	if err := p.install(m, st, db); err != nil {
		p.release(ip, m)
		return nil, err
	}
	// Link the goal against the view's consistent entry table (not the
	// live database, which may be mutating concurrently) and load it as
	// the transient block above the delta.
	qim, err := asm.LinkAt(mod, m.CodeTop(), st.view.Entries)
	if err != nil {
		p.release(ip, m) // machine is consistent at the delta frontier
		return nil, err
	}
	if _, err := m.LoadDyn(qim.Code); err != nil {
		p.release(ip, m)
		return nil, err
	}
	entry, ok := qim.Entries[compiler.QueryPI]
	if !ok {
		p.release(ip, m)
		return nil, fmt.Errorf("engine: goal block has no query entry point")
	}
	m.SetOut(o.out)
	m.Begin(entry)
	return &Session{p: p, ip: ip, m: m, im: qim, budget: budget}, nil
}

// QueryDyn runs a tenant goal to its first solution, the BeginDyn
// analogue of Query.
func (p *Pool) QueryDyn(ctx context.Context, db *dyndb.DB, goal term.Term, options ...Option) (*core.Solution, error) {
	s, err := p.BeginDyn(ctx, db, goal, options...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if s.Next(ctx) {
		return s.Solution(), nil
	}
	if s.Err() != nil {
		return nil, s.Err()
	}
	if s.Suspended() {
		return nil, fmt.Errorf("engine: %w: query exceeded %d steps",
			machine.ErrStepBudget, s.budget)
	}
	return s.Solution(), nil
}

// acquireDyn is acquire with tenant affinity: among the free machines
// of the database's base image it prefers one that last served this
// same database (its delta is already installed and its simulated
// caches are warm for this tenant's code). With no affine machine
// free it behaves like acquire — any free machine, else build under
// the cap, else block.
func (p *Pool) acquireDyn(ctx context.Context, db *dyndb.DB) (*machine.Machine, *imagePool, error) {
	im := db.Image()
	p.mu.Lock()
	ip := p.images[im]
	if ip == nil {
		ip = &imagePool{im: im, free: make(chan *machine.Machine, p.size)}
		p.images[im] = ip
	}
	// Drain the free list, pick the best candidate, park the rest
	// back. The list is at most p.size long and this runs under p.mu,
	// so no other acquirer interleaves.
	var parked []*machine.Machine
	var pick *machine.Machine
drain:
	for {
		select {
		case m := <-ip.free:
			if pick == nil && p.dyn[m] != nil && p.dyn[m].db == db {
				pick = m
			} else {
				parked = append(parked, m)
			}
		default:
			break drain
		}
	}
	if pick == nil && len(parked) > 0 {
		pick, parked = parked[0], parked[1:]
	}
	for _, m := range parked {
		ip.free <- m
	}
	if pick != nil {
		p.mu.Unlock()
		return pick, ip, nil
	}
	if ip.built < p.size {
		ip.built++
		p.mu.Unlock()
		m, err := machine.New(im, p.cfg)
		if err != nil {
			p.mu.Lock()
			ip.built--
			p.mu.Unlock()
			return nil, nil, err
		}
		return m, ip, nil
	}
	p.mu.Unlock()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case m := <-ip.free:
		return m, ip, nil
	case <-done:
		cause := ctx.Err()
		sentinel := machine.ErrCancelled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = machine.ErrDeadline
		}
		return nil, nil, fmt.Errorf("engine: %w: waiting for a pooled machine: %w",
			sentinel, cause)
	}
}
