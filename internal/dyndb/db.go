// Package dyndb is the dynamic clause database: assert(a|z)/retract
// over per-predicate clause chains compiled through the regular
// compiler, with first-argument indexing regenerated on every
// mutation, layered copy-on-write above an immutable base image.
//
// A DB owns one tenant's view of a program: the shared base code
// space (never written), a private code tail holding the current
// block of every rebuilt predicate, and a sparse overlay of patched
// base words — the Call/Execute sites retargeted when a mutated
// predicate's entry moved. Each mutation appends its rebuilt block to
// the tail; once the blocks it replaced outweigh the live ones, the
// mutation compacts the tail, so the tail tracks the live clauses,
// not the mutation history. Machines materialise the view on demand
// (install.go): the whole pool shares one boot image while each
// tenant's asserted clauses stay private to its delta.
//
// Every block enters a code space only through the analyzer's
// loader-grade validation (analysis.CheckEncoded): a malformed
// runtime clause is rejected with a typed *machine.CodeError before
// it can reach any machine, and the database state is unchanged.
package dyndb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/kcmisa"
	"repro/internal/machine"
	"repro/internal/term"
	"repro/internal/word"
)

// Typed rejections of the mutation API.
var (
	// ErrStaticPred: the predicate is compiled statically in the base
	// image and cannot be mutated at runtime.
	ErrStaticPred = errors.New("dyndb: predicate is not dynamic")
	// ErrBadClause: the clause term is not compilable (non-callable
	// head, malformed control construct, unknown body goal...).
	ErrBadClause = errors.New("dyndb: malformed clause")
)

// pred is one dynamic predicate's clause chain and its current
// compiled block.
type pred struct {
	clauses []term.Term      // source clauses, chain order
	mod     *compiler.Module // compiled chain (nil while the block is the base stub); relinked when compaction moves it
	addr    uint32           // current entry address
	lo, hi  uint32           // current block extent (aux included)
}

// compactSlack is the dead-word allowance on top of the live words:
// a mutation compacts the tail once it is longer than twice the live
// words plus this, so small tails are not relaid on every mutation.
const compactSlack = 64

// DB is one tenant's dynamic database over a shared base image.
type DB struct {
	mu   sync.Mutex
	syms *term.SymTab
	im   *asm.Image // the shared boot image; machines boot from it

	base        []word.Word // im.Code: shared, read-only
	baseTop     uint32
	baseEntries map[term.Indicator]uint32

	tail    []word.Word               // private delta code, loaded at baseTop
	live    int                       // words of tail in current blocks
	patches map[uint32]word.Word      // private rewrites of base words
	entries map[term.Indicator]uint32 // full current entry table
	preds   map[term.Indicator]*pred
	version uint64
	auxSeq  int
}

// New builds a database over a linked base image. The dynamic
// predicates must be present in the image as stubs or compiled
// chains (core.Program.BaseImage emits fail stubs); asserting to any
// other predicate of the image is rejected with ErrStaticPred, and
// asserting to a predicate the image does not know declares it on
// the fly.
func New(im *asm.Image, dynamic []term.Indicator) (*DB, error) {
	db := &DB{
		syms:        im.Syms,
		im:          im,
		base:        im.Code,
		baseTop:     uint32(len(im.Code)),
		baseEntries: make(map[term.Indicator]uint32, len(im.Entries)),
		patches:     map[uint32]word.Word{},
		entries:     make(map[term.Indicator]uint32, len(im.Entries)),
		preds:       map[term.Indicator]*pred{},
	}
	for pi, a := range im.Entries {
		db.baseEntries[pi] = a
		db.entries[pi] = a
	}
	for _, pi := range dynamic {
		a, ok := im.Entries[pi]
		if !ok {
			return nil, fmt.Errorf("dyndb: dynamic predicate %v has no stub in the base image", pi)
		}
		db.preds[pi] = &pred{addr: a, lo: a, hi: a + 1}
	}
	return db, nil
}

// Image returns the shared boot image machines materialising this
// database must have booted from.
func (db *DB) Image() *asm.Image { return db.im }

// Syms returns the symbol table shared by the base image and every
// block the database compiles.
func (db *DB) Syms() *term.SymTab { return db.syms }

// Version is a monotone mutation counter; it advances on every
// successful assert or retract, and installs compare it to decide
// whether a machine's materialised view is current.
func (db *DB) Version() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// Dynamic reports whether pi is a dynamic predicate of this database.
func (db *DB) Dynamic(pi term.Indicator) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.preds[pi]
	return ok
}

// Clauses returns a copy of the predicate's current chain.
func (db *DB) Clauses(pi term.Indicator) []term.Term {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.preds[pi]
	if !ok {
		return nil
	}
	return append([]term.Term(nil), p.clauses...)
}

// Clone makes an independent database sharing the immutable base:
// the seed of a fresh tenant. Clause terms and compiled modules are
// shared (the reader never mutates a parsed term, the linker never
// mutates a module); the tail, overlay, entry table and chains are
// copied.
func (db *DB) Clone() *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := &DB{
		syms:        db.syms,
		im:          db.im,
		base:        db.base,
		baseTop:     db.baseTop,
		baseEntries: db.baseEntries,
		tail:        append([]word.Word(nil), db.tail...),
		live:        db.live,
		patches:     make(map[uint32]word.Word, len(db.patches)),
		entries:     make(map[term.Indicator]uint32, len(db.entries)),
		preds:       make(map[term.Indicator]*pred, len(db.preds)),
		version:     db.version,
		auxSeq:      db.auxSeq,
	}
	for a, w := range db.patches {
		c.patches[a] = w
	}
	for pi, a := range db.entries {
		c.entries[pi] = a
	}
	for pi, p := range db.preds {
		cp := *p
		cp.clauses = append([]term.Term(nil), p.clauses...)
		c.preds[pi] = &cp
	}
	return c
}

// clauseHead returns the head of a clause term (the term itself for
// a fact), or nil for a directive.
func clauseHead(t term.Term) term.Term {
	if c, ok := t.(*term.Compound); ok {
		if c.Functor == ":-" && len(c.Args) == 2 {
			return c.Args[0]
		}
		if (c.Functor == ":-" || c.Functor == "?-") && len(c.Args) == 1 {
			return nil
		}
	}
	return t
}

// Assertz appends a clause to its predicate's chain; Asserta
// prepends. Both return the database version the mutation produced.
// A predicate unknown to the base image is declared dynamic on the
// fly; a static predicate of the base image is rejected with
// ErrStaticPred; an uncompilable clause is rejected with ErrBadClause
// (and a block failing loader-grade validation with a
// *machine.CodeError) — in every rejection case the database is
// unchanged.
func (db *DB) Assertz(cl term.Term) (uint64, error) { return db.assert(cl, false) }

// Asserta prepends a clause to its predicate's chain. See Assertz.
func (db *DB) Asserta(cl term.Term) (uint64, error) { return db.assert(cl, true) }

func (db *DB) assert(cl term.Term, front bool) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pi, p, err := db.chainFor(cl, true)
	if err != nil {
		return 0, err
	}
	next := make([]term.Term, 0, len(p.clauses)+1)
	if front {
		next = append(next, cl)
		next = append(next, p.clauses...)
	} else {
		next = append(next, p.clauses...)
		next = append(next, cl)
	}
	if err := db.rebuild(pi, p, next); err != nil {
		return 0, err
	}
	return db.version, nil
}

// Retract removes the first clause of the chain that is a variant of
// cl (equal up to variable renaming) and reports whether one was
// found. The predicate's dispatch is rebuilt without it; retracting
// the last clause leaves a fail stub, exactly like a freshly
// declared predicate.
func (db *DB) Retract(cl term.Term) (bool, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pi, p, err := db.chainFor(cl, false)
	if err != nil {
		return false, 0, err
	}
	if p == nil {
		return false, db.version, nil
	}
	at := -1
	for i, have := range p.clauses {
		if term.Variant(have, cl) {
			at = i
			break
		}
	}
	if at < 0 {
		return false, db.version, nil
	}
	next := make([]term.Term, 0, len(p.clauses)-1)
	next = append(next, p.clauses[:at]...)
	next = append(next, p.clauses[at+1:]...)
	if err := db.rebuild(pi, p, next); err != nil {
		return false, 0, err
	}
	return true, db.version, nil
}

// Reload replaces a predicate's whole chain in one rebuild — the
// seeding path for initial clauses, and the bulk form of assert.
func (db *DB) Reload(pi term.Indicator, clauses []term.Term) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.preds[pi]
	if !ok {
		if _, static := db.baseEntries[pi]; static {
			return 0, fmt.Errorf("%w: %v", ErrStaticPred, pi)
		}
		p = &pred{}
		db.preds[pi] = p
	}
	if err := db.rebuild(pi, p, append([]term.Term(nil), clauses...)); err != nil {
		if len(p.clauses) == 0 && p.hi == 0 {
			delete(db.preds, pi) // fresh declaration never materialised
		}
		return 0, err
	}
	return db.version, nil
}

// chainFor validates a clause term and resolves (declaring when
// asked) its predicate's chain.
func (db *DB) chainFor(cl term.Term, declare bool) (term.Indicator, *pred, error) {
	head := clauseHead(cl)
	if head == nil {
		return term.Indicator{}, nil, fmt.Errorf("%w: %v is a directive", ErrBadClause, cl)
	}
	pi, ok := term.TermIndicator(head)
	if !ok {
		return term.Indicator{}, nil, fmt.Errorf("%w: head %v is not callable", ErrBadClause, head)
	}
	p, known := db.preds[pi]
	if !known {
		if _, static := db.baseEntries[pi]; static {
			return term.Indicator{}, nil, fmt.Errorf("%w: %v", ErrStaticPred, pi)
		}
		if !declare {
			return pi, nil, nil
		}
		p = &pred{}
		db.preds[pi] = p
	}
	return pi, p, nil
}

// rebuild compiles a predicate's new chain, links it at the top of
// the tail, validates it, and — only then — commits: the block is
// appended to the tail, the entry table is updated, and every call
// site of the old entry is retargeted to the new block. A commit that
// leaves the tail longer than twice its live words (plus
// compactSlack) compacts it within the same mutation, which keeps the
// amortised cost of a mutation O(block). Callers hold db.mu.
func (db *DB) rebuild(pi term.Indicator, p *pred, clauses []term.Term) error {
	c := compiler.New(db.syms)
	c.SetAuxBase(db.auxSeq)
	mod, err := c.CompileClauses(pi, clauses)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadClause, err)
	}
	top := db.baseTop + uint32(len(db.tail))
	im, err := asm.LinkAt(mod, top, db.entries)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadClause, err)
	}
	if ds := analysis.CheckEncodedCached(im.Code, top, top); len(ds) > 0 {
		return &machine.CodeError{Base: top, Diags: ds}
	}
	newAddr, ok := im.Entries[pi]
	if !ok {
		return fmt.Errorf("dyndb: linked block lost entry %v", pi)
	}

	// Commit. The old entry address (0 means a fresh declaration with
	// no callers yet) is retargeted across the whole image.
	oldAddr := p.addr
	db.tail = append(db.tail, im.Code...)
	if p.mod != nil {
		for _, old := range p.mod.Order {
			delete(db.entries, old)
		}
		db.live -= int(p.hi - p.lo)
	}
	for _, mpi := range im.Order {
		db.entries[mpi] = im.Entries[mpi]
	}
	p.clauses, p.mod = clauses, mod
	p.addr = newAddr
	p.lo, p.hi = top, top+uint32(len(im.Code))
	db.live += len(im.Code)
	if oldAddr != 0 {
		db.retarget(oldAddr, newAddr)
	}
	db.auxSeq = c.AuxBase()
	db.version++
	if len(db.tail) > 2*db.live+compactSlack {
		// A compaction that fails commits nothing: the uncompacted
		// state is still valid, and the next mutation tries again.
		_ = db.compact()
	}
	return nil
}

// compact rewrites the tail to hold only the current blocks, laid out
// contiguously from baseTop in their current address order, and moves
// the entry table, the overlay and the block extents with them.
//
// Pass 1 computes every block's new address and with it every moved
// entry (a block's size does not depend on where it is linked). Pass 2
// relinks each block's compiled module at its new address against the
// new entry table and checks the whole new tail like a load. The old
// tail is not retargeted in place: new addresses reuse old ones, so an
// old→new rewrite would also capture calls to whichever block now sits
// at an old address. Nothing is committed unless every step succeeds.
// Callers hold db.mu.
func (db *DB) compact() error {
	type move struct {
		pi term.Indicator
		p  *pred
		lo uint32 // new block start
	}
	var moves []move
	for pi, p := range db.preds {
		if p.mod != nil {
			moves = append(moves, move{pi: pi, p: p})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].p.lo < moves[j].p.lo })

	// Pass 1: layout, the new entry table, and old→new for every moved
	// entry.
	entries := make(map[term.Indicator]uint32, len(db.entries))
	for pi, a := range db.entries {
		entries[pi] = a
	}
	moved := make(map[uint32]uint32, len(moves))
	at := db.baseTop
	for i := range moves {
		mv := &moves[i]
		mv.lo = at
		for _, mpi := range mv.p.mod.Order {
			old := db.entries[mpi]
			entries[mpi] = old - mv.p.lo + at
			moved[old] = entries[mpi]
		}
		at += mv.p.hi - mv.p.lo
	}

	// Pass 2: relink every block where pass 1 put it.
	tail := make([]word.Word, 0, at-db.baseTop)
	for _, mv := range moves {
		im, err := asm.LinkAt(mv.p.mod, mv.lo, entries)
		if err != nil {
			return err
		}
		if n := mv.p.hi - mv.p.lo; len(im.Code) != int(n) {
			return fmt.Errorf("dyndb: %v relinked to %d words, was %d", mv.pi, len(im.Code), n)
		}
		tail = append(tail, im.Code...)
	}
	if ds := analysis.CheckEncodedCached(tail, db.baseTop, db.baseTop); len(ds) > 0 {
		return &machine.CodeError{Base: db.baseTop, Diags: ds}
	}

	// Every overlay word is a base call site naming a current entry:
	// move them all in one substitution.
	patches := make(map[uint32]word.Word, len(db.patches))
	var in kcmisa.Instr
	for a, w := range db.patches {
		kcmisa.DecodeInto(db.codeAt, a, &in)
		to, ok := moved[uint32(in.L)]
		if !ok || (in.Op != kcmisa.Call && in.Op != kcmisa.Execute) {
			return fmt.Errorf("dyndb: overlay word at %d does not call a current block", a)
		}
		patches[a] = w&^word.Word(0xFFFFFFFF) | word.Word(to)
	}

	db.tail, db.patches, db.entries = tail, patches, entries
	for _, mv := range moves {
		p := mv.p
		p.addr = entries[mv.pi]
		p.lo, p.hi = mv.lo, mv.lo+(p.hi-p.lo)
	}
	return nil
}

// codeAt reads the database's current view of the code space: base
// words under their overlay, then the private tail.
func (db *DB) codeAt(a uint32) word.Word {
	if a < db.baseTop {
		if w, ok := db.patches[a]; ok {
			return w
		}
		return db.base[a]
	}
	if i := int(a - db.baseTop); i < len(db.tail) {
		return db.tail[i]
	}
	return 0
}

// retarget rewrites every Call/Execute site whose target is old to
// point at new, walking the image instruction by instruction (switch
// tables are skipped atomically, so a key word can never be mistaken
// for a call). The value part of the instruction word is rewritten;
// the opcode half is untouched. Tail words are rewritten in place
// (the tail is private, and every install loads it whole); base words
// go to the overlay.
func (db *DB) retarget(old, new uint32) {
	top := db.baseTop + uint32(len(db.tail))
	var in kcmisa.Instr
	for a := uint32(0); a < top; {
		n := kcmisa.DecodeInto(db.codeAt, a, &in)
		if n <= 0 {
			n = 1
		}
		if (in.Op == kcmisa.Call || in.Op == kcmisa.Execute) && in.L == int(old) {
			w := db.codeAt(a)&^word.Word(0xFFFFFFFF) | word.Word(new)
			if a >= db.baseTop {
				db.tail[a-db.baseTop] = w
			} else {
				db.patches[a] = w
			}
		}
		a += uint32(n)
	}
}

// entriesSnapshot copies the current entry table; callers hold db.mu.
func (db *DB) entriesSnapshot() map[term.Indicator]uint32 {
	out := make(map[term.Indicator]uint32, len(db.entries))
	for pi, a := range db.entries {
		out[pi] = a
	}
	return out
}

// patchOp is one overlay word.
type patchOp struct {
	addr uint32
	w    word.Word
}

// sortedPatches returns the overlay in address order; callers hold
// db.mu.
func (db *DB) sortedPatches() []patchOp {
	out := make([]patchOp, 0, len(db.patches))
	for a, w := range db.patches {
		out = append(out, patchOp{addr: a, w: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}
