package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark
// around its own call into that layer's public functions.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index in the same tracer; -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is one goroutine's in-memory span buffer, read after the run.
// A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) open(op uint64, name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTime is the parent span's duration minus the part of its
// interval that its child spans cover: the time its own code ran.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, end int64
	for _, iv := range ivs {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			covered += iv[1] - end
			end = iv[1]
		}
	}
	return parent.End - parent.Start - covered
}

// defaultBudget is the daemon's per-slice budget for requests that
// carry none (server.Config.DefaultBudget's default).
const defaultBudget = 50_000_000

// replayEnv serves ops by calling the layers directly, mirroring what
// the daemon does for each verb: compile-once images keyed by (program,
// goal), tenant databases cloned from a per-program seed, and one
// engine.Pool for both.
type replayEnv struct {
	progs map[string]*core.Program
	pool  *engine.Pool

	mu      sync.Mutex // guards the maps; serializes compiles (the compiler mutates the symbol table)
	images  map[[2]string]*asm.Image
	seeds   map[string]*dyndb.DB
	tenants map[[2]string]*dyndb.DB
	// timed keeps the machines built only to time machine.New: a freed
	// board would be cleared on reuse, touching 32 MB (see timedRun).
	timed []*machine.Machine
}

func newReplayEnv(programs map[string]string, options ...engine.PoolOption) (*replayEnv, error) {
	e := &replayEnv{
		progs:   map[string]*core.Program{},
		pool:    engine.New(options...),
		images:  map[[2]string]*asm.Image{},
		seeds:   map[string]*dyndb.DB{},
		tenants: map[[2]string]*dyndb.DB{},
	}
	for name, src := range programs {
		p, err := core.Load(src)
		if err != nil {
			return nil, fmt.Errorf("program %q: %w", name, err)
		}
		e.progs[name] = p
	}
	return e, nil
}

// replayOut is what one replayed op produced.
type replayOut struct {
	sols     []map[string]string
	res      machine.Result // the session's counters; zero for a mutation
	compiled bool           // the goal was compiled by this op (first sight)
}

// replay runs one op through the layers, each call under its own span
// whose parent is parent.
func (e *replayEnv) replay(ctx context.Context, tr *tracer, id uint64, parent int32, o *op) (replayOut, error) {
	var out replayOut
	if o.Kind == opAssert || o.Kind == opRetract {
		return out, e.mutate(tr, id, parent, o)
	}
	body, err := json.Marshal(wire.QueryRequest{Program: o.Program, Tenant: o.Tenant, Goal: o.Text,
		Enumerate: o.Kind == opEnum, Stream: o.Kind == opStream, Budget: o.Budget})
	if err != nil {
		return out, err
	}
	var req wire.QueryRequest
	if err := decode(tr, id, parent, body, &req); err != nil {
		return out, err
	}
	budget := req.Budget
	if budget == 0 {
		budget = defaultBudget
	}
	var sess *engine.Session
	if req.Tenant == "" {
		im, first, err := e.image(tr, id, parent, req.Program, req.Goal)
		if err != nil {
			return out, err
		}
		out.compiled = first
		sp := tr.open(id, "engine.begin", parent)
		sess, err = e.pool.Begin(ctx, im, engine.WithBudget(budget))
		tr.close(sp)
		if err != nil {
			return out, err
		}
	} else {
		sp := tr.open(id, "reader.parse", parent)
		goal, err := reader.ParseTerm(req.Goal)
		tr.close(sp)
		if err != nil {
			return out, err
		}
		db, err := e.tenant(tr, id, parent, req.Program, req.Tenant)
		if err != nil {
			return out, err
		}
		sp = tr.open(id, "engine.begin_dyn", parent)
		sess, err = e.pool.BeginDyn(ctx, db, goal, engine.WithBudget(budget))
		tr.close(sp)
		if err != nil {
			return out, err
		}
	}
	err = e.drive(ctx, tr, id, parent, o.Kind, sess, &out)
	out.res = sess.Result()
	sp := tr.open(id, "engine.release", parent)
	sess.Close()
	tr.close(sp)
	return out, err
}

// drive enumerates a session the way the daemon serves the op's verb:
// one solution for a query, a reply per slice plus a next request for
// an enumeration, a line per solution for a stream.
func (e *replayEnv) drive(ctx context.Context, tr *tracer, id uint64, parent int32, kind opKind, sess *engine.Session, out *replayOut) error {
	for {
		sp := tr.open(id, "machine.run", parent)
		ok := sess.Next(ctx)
		tr.close(sp)
		var rep wire.Reply
		switch {
		case ok:
			sp = tr.open(id, "term.render", parent)
			b := render(sess.Solution())
			tr.close(sp)
			out.sols = append(out.sols, b)
			rep = wire.Reply{Status: wire.StatusYes, Bindings: b, Solutions: sess.Delivered()}
			if kind != opStream {
				rep.Stats = counters(sess.Solution().Result)
			}
		case sess.Suspended():
			if kind == opStream {
				continue // a stream rides straight into the next slice
			}
			rep = wire.Reply{Status: wire.StatusSuspended, Solutions: sess.Delivered()}
		case sess.Err() != nil:
			return sess.Err()
		default:
			status := wire.StatusNo
			if kind == opStream {
				status = wire.StatusDone
			}
			return encode(tr, id, parent, wire.Reply{Status: status, Solutions: sess.Delivered(),
				Stats: counters(sess.Result())})
		}
		if err := encode(tr, id, parent, rep); err != nil {
			return err
		}
		switch kind {
		case opQuery:
			return nil
		case opEnum:
			// The client answers every enumeration reply with a next.
			body, err := json.Marshal(wire.NextRequest{Session: "s"})
			if err != nil {
				return err
			}
			var next wire.NextRequest
			if err := decode(tr, id, parent, body, &next); err != nil {
				return err
			}
		}
	}
}

// mutate replays an assert or retract against the tenant's database.
func (e *replayEnv) mutate(tr *tracer, id uint64, parent int32, o *op) error {
	body, err := json.Marshal(wire.AssertRequest{Program: o.Program, Tenant: o.Tenant, Clause: o.Text})
	if err != nil {
		return err
	}
	var req wire.AssertRequest
	if err := decode(tr, id, parent, body, &req); err != nil {
		return err
	}
	sp := tr.open(id, "reader.parse", parent)
	cl, err := reader.ParseTerm(terminated(req.Clause))
	tr.close(sp)
	if err != nil {
		return err
	}
	db, err := e.tenant(tr, id, parent, req.Program, req.Tenant)
	if err != nil {
		return err
	}
	if o.Kind == opAssert {
		sp = tr.open(id, "dyndb.assert", parent)
		_, err = db.Assertz(cl)
		tr.close(sp)
	} else {
		sp = tr.open(id, "dyndb.retract", parent)
		var ok bool
		ok, _, err = db.Retract(cl)
		tr.close(sp)
		if err == nil && !ok {
			err = fmt.Errorf("retract %s: no clause matched", o.Text)
		}
	}
	if err != nil {
		return err
	}
	return encode(tr, id, parent, wire.Reply{Status: wire.StatusYes, Version: db.Version()})
}

// image returns the compiled image of (program, goal), compiling it on
// first sight, as the daemon does (CompileQuery parses the goal itself).
// A first sight also times machine.New on the fresh image, the other
// cost the daemon's first sight of a goal pays; the machine itself is
// never used.
func (e *replayEnv) image(tr *tracer, id uint64, parent int32, program, goal string) (*asm.Image, bool, error) {
	key := [2]string{program, goal}
	e.mu.Lock()
	if im, ok := e.images[key]; ok {
		e.mu.Unlock()
		return im, false, nil
	}
	prog, ok := e.progs[program]
	if !ok {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("unknown program %q", program)
	}
	sp := tr.open(id, "core.compile", parent)
	im, err := prog.CompileQuery(goal)
	tr.close(sp)
	if err == nil {
		e.images[key] = im
	}
	e.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	m, err := timeMachineNew(tr, id, parent, im)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	e.timed = append(e.timed, m)
	e.mu.Unlock()
	return im, true, nil
}

func timeMachineNew(tr *tracer, id uint64, parent int32, im *asm.Image) (*machine.Machine, error) {
	sp := tr.open(id, "machine.new", parent)
	m, err := machine.New(im, machine.Config{})
	tr.close(sp)
	return m, err
}

// tenant returns the tenant's database, cloning the program's seed
// database on first sight, as the daemon does.
func (e *replayEnv) tenant(tr *tracer, id uint64, parent int32, program, name string) (*dyndb.DB, error) {
	key := [2]string{program, name}
	e.mu.Lock()
	defer e.mu.Unlock()
	if db, ok := e.tenants[key]; ok {
		return db, nil
	}
	seed, ok := e.seeds[program]
	if !ok {
		prog, found := e.progs[program]
		if !found {
			return nil, fmt.Errorf("unknown program %q", program)
		}
		im, ds, err := prog.BaseImage()
		if err != nil {
			return nil, err
		}
		if seed, err = dyndb.New(im, ds.Order); err != nil {
			return nil, err
		}
		for _, pi := range ds.Order {
			if cls := ds.Clauses[pi]; len(cls) > 0 {
				if _, err := seed.Reload(pi, cls); err != nil {
					return nil, err
				}
			}
		}
		m, err := timeMachineNew(tr, id, parent, im)
		if err != nil {
			return nil, err
		}
		e.timed = append(e.timed, m)
		e.seeds[program] = seed
	}
	sp := tr.open(id, "dyndb.clone", parent)
	db := seed.Clone()
	tr.close(sp)
	e.tenants[key] = db
	return db, nil
}

func decode(tr *tracer, id uint64, parent int32, body []byte, v any) error {
	sp := tr.open(id, "wire.decode", parent)
	err := json.Unmarshal(body, v)
	tr.close(sp)
	return err
}

func encode(tr *tracer, id uint64, parent int32, rep wire.Reply) error {
	sp := tr.open(id, "wire.encode", parent)
	_, err := json.Marshal(rep)
	tr.close(sp)
	return err
}

// render is the daemon's readback rendering of a solution's bindings.
func render(sol *core.Solution) map[string]string {
	if sol == nil || len(sol.Vars) == 0 {
		return nil
	}
	out := make(map[string]string, len(sol.Vars))
	for name, t := range sol.Bindings() {
		out[name] = t.String()
	}
	return out
}

func counters(res machine.Result) *wire.Counters {
	return &wire.Counters{Cycles: res.Stats.Cycles, Instructions: res.Stats.Instrs,
		Inferences: res.Stats.Inferences, Millis: res.Stats.Millis(),
		GCCollections: res.GC.Collections, GCCycles: res.GC.Cycles}
}

// terminated appends the clause terminator the reader needs, as the
// daemon does for assert and retract text.
func terminated(text string) string {
	if strings.HasSuffix(strings.TrimSpace(text), ".") {
		return text
	}
	return text + " ."
}
