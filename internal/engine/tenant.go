package engine

import (
	"context"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/dyndb"
	"repro/internal/term"
)

// Database leases: copy-on-write image sharing over the pool.
//
// Every dynamic database (internal/dyndb) — a program's seed and each
// tenant's clone of it — layers a private delta (rebuilt predicate
// blocks plus retargeted call sites) above one immutable base image.
// The pool keys its machines by that shared base image, so a program
// costs one image and one machine complement however many databases
// and goals it serves: BeginGoal leases any pooled machine and makes
// it the requesting database's by rolling back whatever delta it
// carries (restoring the boot frontier and patched words) and
// installing the database's whole delta above the base. The goal
// itself is a small block linked and loaded above that view.
//
// The database compacts its tail as it mutates, so that install costs
// O(live clauses) however long the database's mutation history; and
// all delta writes are diff-aware (machine.LoadDyn/PatchDyn skip words
// already holding their value), so a switch rewrites only the words
// where the two deltas differ. A machine still carrying the requesting
// database at its current version skips the install altogether —
// acquire prefers such a machine, whose simulated caches are also warm
// for the database's code.

// install brings a leased machine to the database's current version.
// A machine already carrying this version only drops the previous goal
// block; any other — another database's, or this one's at an older
// version — is rolled back to the boot image and the delta
// materialised. On error the machine is rolled back to its boot image
// again and forgets the database, so it can serve the next lease.
func (l *lease) install(db *dyndb.DB) error {
	if l.db == db && l.view.Version == db.Version() {
		l.m.TruncateCode(l.view.Top)
		return nil
	}
	l.m.Rollback(l.mark)
	view, err := db.Materialize(l.m)
	if err != nil {
		l.m.Rollback(l.mark)
		l.db, l.view = nil, dyndb.View{}
		return err
	}
	l.db, l.view = db, view
	return nil
}

// Goal is a query goal compiled once into a position-independent
// module: its $query/0 clause and control auxiliaries, with calls into
// the program left symbolic. One Goal serves every database over the
// program's base image — the seed and its clones share the symbol
// table the goal was compiled against, and linking never mutates the
// module. A Goal is safe for concurrent use.
type Goal struct {
	mod  *compiler.Module
	last atomic.Pointer[goalLink]
}

// goalLink is a Goal's block as last linked. A view's code frontier
// and entry table are fixed by its database and version (every
// mutation, compaction included, advances the version), so the block
// serves any lease whose installed view has the same two.
type goalLink struct {
	db      *dyndb.DB
	version uint64
	im      *asm.Image
}

// CompileGoal compiles goal against syms, the symbol table of the
// databases it will run over (dyndb.DB.Syms).
func CompileGoal(syms *term.SymTab, goal term.Term) (*Goal, error) {
	mod, err := compiler.New(syms).CompileGoal(goal)
	if err != nil {
		return nil, err
	}
	return &Goal{mod: mod}, nil
}

// link returns the goal's block linked above db's view, relinking only
// when the view differs from the last one linked against.
func (g *Goal) link(db *dyndb.DB, view dyndb.View) (*asm.Image, error) {
	if l := g.last.Load(); l != nil && l.db == db && l.version == view.Version {
		return l.im, nil
	}
	im, err := asm.LinkAt(g.mod, view.Top, view.Entries)
	if err != nil {
		return nil, err
	}
	g.last.Store(&goalLink{db: db, version: view.Version, im: im})
	return im, nil
}

// load makes a leased machine carry db's current view with g's block
// loaded transiently above it, and returns the block. The block links
// against the view's consistent entry table, not the live database,
// which may be mutating concurrently. The counters are reset after the
// load, so its untimed code writes are not charged to the query. On
// error the machine is still fit for release.
func (l *lease) load(db *dyndb.DB, g *Goal) (*asm.Image, error) {
	if err := l.install(db); err != nil {
		return nil, err
	}
	qim, err := g.link(db, l.view)
	if err != nil {
		return nil, err
	}
	if _, err := l.m.LoadDyn(qim.Code); err != nil {
		return nil, err
	}
	l.m.Reset()
	return qim, nil
}

// leaseGoal is the lease step BeginGoal and ResumeGoal share: it
// acquires a pooled machine for db's base image and loads g's block
// over db's current view, returning the machine to the pool if the
// load fails.
func (p *Pool) leaseGoal(ctx context.Context, db *dyndb.DB, g *Goal) (*lease, *asm.Image, error) {
	l, err := p.acquire(ctx, db.Image(), db)
	if err != nil {
		return nil, nil, err
	}
	qim, err := l.load(db, g)
	if err != nil {
		p.release(l)
		return nil, nil, err
	}
	return l, qim, nil
}

// BeginGoal leases a pooled machine for one query of g over db: db's
// delta is installed over the shared base image and g's block loaded
// above it. The returned session behaves exactly like Begin's —
// enumerate, suspend on budget, resume, Close to release — and Close
// leaves the delta in place, so the next lease of the same database on
// that machine reuses it for free.
func (p *Pool) BeginGoal(ctx context.Context, db *dyndb.DB, g *Goal, options ...Option) (*Session, error) {
	var o opts
	for _, opt := range options {
		opt(&o)
	}
	l, qim, err := p.leaseGoal(ctx, db, g)
	if err != nil {
		return nil, err
	}
	l.m.Begin(qim.Entries[compiler.QueryPI])
	return &Session{p: p, l: l, im: qim, budget: p.budget(o.budget)}, nil
}

// BeginDyn compiles goal against db's symbol table and leases it with
// BeginGoal. A caller running one goal text repeatedly compiles it
// once with CompileGoal instead.
func (p *Pool) BeginDyn(ctx context.Context, db *dyndb.DB, goal term.Term, options ...Option) (*Session, error) {
	g, err := CompileGoal(db.Syms(), goal)
	if err != nil {
		return nil, err
	}
	return p.BeginGoal(ctx, db, g, options...)
}
