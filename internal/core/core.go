// Package core is the public face of the KCM reproduction: it wires
// the reader, compiler, assembler and machine together into the
// "complete language sub-system running on KCM" of the paper. A
// Program holds consulted source clauses; Query compiles a goal
// against them, links an image, boots a machine and runs it.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/term"
	"repro/internal/trace"
)

// Program is a consulted Prolog program ready to be queried.
type Program struct {
	clauses []term.Term
	syms    *term.SymTab
}

// Load parses Prolog source text into a Program.
func Load(src string) (*Program, error) {
	clauses, err := reader.ParseAll(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{clauses: clauses, syms: term.NewSymTab()}, nil
}

// MustLoad is Load for tests and examples with known-good sources.
func MustLoad(src string) *Program {
	p, err := Load(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Consult appends more source text to the program.
func (p *Program) Consult(src string) error {
	clauses, err := reader.ParseAll(src)
	if err != nil {
		return err
	}
	p.clauses = append(p.clauses, clauses...)
	return nil
}

// Clauses returns the consulted clauses (reader output).
func (p *Program) Clauses() []term.Term { return p.clauses }

// Syms exposes the symbol table shared by compilation runs.
func (p *Program) Syms() *term.SymTab { return p.syms }

// CompileQuery compiles the program together with a query goal and
// links the result into a loadable image.
func (p *Program) CompileQuery(query string) (*asm.Image, error) {
	goal, err := reader.ParseTerm(query)
	if err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	clauses, ds, err := p.runnableClauses()
	if err != nil {
		return nil, err
	}
	c := compiler.New(p.syms)
	mod, err := c.CompileProgram(clauses)
	if err != nil {
		return nil, err
	}
	// A dynamic predicate with no clauses still exists (it fails);
	// give it the same stub the clause-store base image would.
	for _, pi := range ds.Order {
		if _, ok := mod.Preds[pi]; !ok {
			mod.Preds[pi] = compiler.StubPred(pi)
			mod.Order = append(mod.Order, pi)
		}
	}
	if err := c.CompileQuery(mod, goal); err != nil {
		return nil, err
	}
	return asm.Link(mod)
}

// Solution is the outcome of running a query on the machine.
type Solution struct {
	Success bool
	Vars    map[term.Var]term.Term // named query variables (reader names)
	Result  machine.Result
}

// Binding returns the value of a named query variable.
func (s *Solution) Binding(name string) (term.Term, bool) {
	t, ok := s.Vars[term.Var(name)]
	return t, ok
}

// Bindings returns the named query variables keyed by their source
// spelling, the host-friendly view of Vars.
func (s *Solution) Bindings() map[string]term.Term {
	out := make(map[string]term.Term, len(s.Vars))
	for v, t := range s.Vars {
		out[string(v)] = t
	}
	return out
}

// String renders the solution in a stable form: "no" for failure,
// "yes" for a solution without named variables, otherwise the
// bindings sorted by variable name ("X = 1, Ys = [a,b]").
func (s *Solution) String() string {
	if !s.Success {
		return "no"
	}
	if len(s.Vars) == 0 {
		return "yes"
	}
	names := make([]string, 0, len(s.Vars))
	for v := range s.Vars {
		names = append(names, string(v))
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		b.WriteString(" = ")
		b.WriteString(s.Vars[term.Var(n)].String())
	}
	return b.String()
}

// QueryOption configures one Query or Solutions run. Options are
// applied in order, so WithWriter after WithConfig overrides the
// configuration's writer (and vice versa).
type QueryOption func(*queryOpts)

type queryOpts struct {
	cfg       machine.Config
	ctx       context.Context
	budget    uint64
	budgetSet bool
	maxSols   int
	hooks     []trace.Hook
}

// WithConfig replaces the whole machine configuration.
func WithConfig(cfg machine.Config) QueryOption {
	return func(o *queryOpts) { o.cfg = cfg }
}

// WithWriter directs write/1 and nl/0 output to w.
func WithWriter(w io.Writer) QueryOption {
	return func(o *queryOpts) { o.cfg.Out = w }
}

// WithContext attaches a cancellation context: the run is polled
// every machine.CheckStride instructions, and a cancellation or
// deadline surfaces as machine.ErrCancelled / machine.ErrDeadline.
func WithContext(ctx context.Context) QueryOption {
	return func(o *queryOpts) { o.ctx = ctx }
}

// WithBudget bounds execution to n instructions per run slice. On a
// one-shot Query, exhausting the budget fails with
// machine.ErrStepBudget. On a Solutions iterator the budget applies
// per Next call and exhaustion is resumable: Next reports no solution
// with Suspended() true, and the next Next call continues the
// suspended search with a fresh budget.
func WithBudget(n uint64) QueryOption {
	return func(o *queryOpts) { o.budget = n; o.budgetSet = n > 0 }
}

// WithMaxSolutions stops a Solutions iterator after k solutions
// (0 = enumerate all). One-shot Query always stops at the first.
func WithMaxSolutions(k int) QueryOption {
	return func(o *queryOpts) { o.maxSols = k }
}

// WithTrace attaches a trace hook to the query's machine. Several
// hooks (and a hook already present in the configuration) compose:
// each receives the full event stream. Tracing never changes the
// simulated counters; see internal/trace. A trace.Profiler attached
// here is the per-predicate cycle profile: after the query, read
// pr.Rows(), pr.Total() and pr.FoldedMap().
func WithTrace(h trace.Hook) QueryOption {
	return func(o *queryOpts) {
		if h != nil {
			o.hooks = append(o.hooks, h)
		}
	}
}

// Query runs a goal against the program and returns its first
// solution. With no options it uses a default-configuration KCM and
// runs to completion; functional options select writer, machine
// configuration, cancellation context and step budget.
func (p *Program) Query(query string, opts ...QueryOption) (*Solution, error) {
	it, err := p.Solutions(query, opts...)
	if err != nil {
		return nil, err
	}
	if it.Next() {
		return it.Solution(), nil
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	if it.Suspended() {
		return nil, fmt.Errorf("core: %w: query suspended after %d-step budget",
			machine.ErrStepBudget, it.budget)
	}
	return it.Solution(), nil // the failed outcome, with its Result
}

// Solutions compiles a goal and returns an iterator over its
// solutions, driven by redo-based enumeration on one machine: after
// each solution the iterator forces a failure into the topmost choice
// point and resumes the search. The usual loop is
//
//	it, err := prog.Solutions("member(X, [1,2,3]).")
//	for it.Next() {
//	    use(it.Solution())
//	}
//	if it.Err() != nil { ... }
type Solutions struct {
	m         *machine.Machine
	im        *asm.Image
	ctx       context.Context
	budget    uint64
	budgetSet bool
	maxSols   int

	cur       *Solution // last outcome (success or the final failure)
	err       error
	suspended bool
	delivered int
	state     int
}

const (
	iterRun  = iota // next step: RunFor (fresh goal or resumed slice)
	iterRedo        // a solution is out; Redo before the next RunFor
	iterDone        // exhausted, failed, errored, or maxSols reached
)

// Solutions starts a solution iterator for the goal. No instruction
// runs until the first Next call.
func (p *Program) Solutions(query string, opts ...QueryOption) (*Solutions, error) {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	im, err := p.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	if len(o.hooks) > 0 {
		o.cfg.Hook = trace.Tee(append([]trace.Hook{o.cfg.Hook}, o.hooks...)...)
	}
	m, err := machine.New(im, o.cfg)
	if err != nil {
		return nil, err
	}
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		return nil, fmt.Errorf("core: no query entry point")
	}
	budget := o.budget
	if !o.budgetSet {
		// Legacy semantics: the configuration's hard step bound (the
		// machine default when unset), raised as an error, not a
		// resumable suspension.
		budget = o.cfg.MaxSteps
		if budget == 0 {
			budget = 1_000_000_000
		}
	}
	m.Begin(entry)
	return &Solutions{
		m: m, im: im, ctx: o.ctx,
		budget: budget, budgetSet: o.budgetSet, maxSols: o.maxSols,
	}, nil
}

// Next advances to the next solution. It returns false when the
// search is exhausted, errored, suspended on its step budget, or hit
// the WithMaxSolutions bound; check Err and Suspended to tell the
// cases apart. After a budget suspension, calling Next again resumes
// the search with a fresh budget.
func (it *Solutions) Next() bool {
	it.suspended = false
	if it.err != nil || it.state == iterDone {
		return false
	}
	if it.state == iterRedo {
		if err := it.m.Redo(); err != nil {
			it.err = err
			it.state = iterDone
			return false
		}
		it.state = iterRun
	}
	st, err := it.m.RunFor(it.ctx, it.budget)
	if err != nil {
		it.err = err
		it.state = iterDone
		return false
	}
	if st == machine.Suspended {
		if !it.budgetSet {
			it.err = fmt.Errorf("core: %w: %d steps", machine.ErrStepBudget, it.budget)
			it.state = iterDone
			return false
		}
		it.suspended = true // state stays iterRun: Next resumes
		return false
	}
	res := it.m.Result()
	if !res.Success {
		it.cur = &Solution{Success: false, Result: res}
		it.state = iterDone
		return false
	}
	it.cur = &Solution{
		Success: true,
		Vars:    it.m.QueryBindings(it.im.QueryVars),
		Result:  res,
	}
	it.delivered++
	if it.maxSols > 0 && it.delivered >= it.maxSols {
		it.state = iterDone
	} else {
		it.state = iterRedo
	}
	return true
}

// Solution returns the outcome of the last Next call that produced
// one: the current solution after Next reported true, or the final
// failed outcome (Success=false, machine counters populated) once the
// search is exhausted.
func (it *Solutions) Solution() *Solution { return it.cur }

// Suspended reports whether the last Next call stopped on its step
// budget rather than an outcome; the search resumes on the next Next.
func (it *Solutions) Suspended() bool { return it.suspended }

// Err returns the first error the iteration hit, if any.
func (it *Solutions) Err() error { return it.err }
