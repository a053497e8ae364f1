// Package engine serves concurrent queries from a pool of warm KCM
// machines. The paper's KCM is a back-end processor: a host holds the
// compiled image and dispatches goals to the accelerator, which is
// exactly the shape of a serving system — one compiled image, many
// independent machine states. A Pool builds each machine once per
// image (loading code and heating the host-side predecode cache) and
// thereafter resets and re-boots it per query, so steady-state query
// dispatch costs no image loading and no allocation of machine state.
//
// Machines sharing an image are safe to run concurrently: the image
// and its symbol table are read-only during execution (term.SymTab is
// internally locked for the readback path), and each machine owns its
// simulated memory, caches and MMU.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Pool is a fixed-size pool of machines per compiled image. The zero
// value is not usable; call New.
type Pool struct {
	cfg      machine.Config
	size     int
	autoWarm bool

	mu     sync.Mutex
	images map[*asm.Image]*imagePool
	dyn    map[*machine.Machine]*dynState // tenant delta each machine carries
	agg    *trace.Agg                     // pool-wide profile; nil until EnableProfiling
}

// imagePool tracks the machines built for one image. free is buffered
// to the pool size, so release never blocks; built (guarded by
// Pool.mu) counts machines in existence, capping construction.
type imagePool struct {
	im     *asm.Image
	free   chan *machine.Machine
	built  int
	warmed bool // WithWarm already ran for this image
}

// PoolOption configures a Pool at construction. The options mirror
// core's query options, so server configuration and library
// configuration read identically.
type PoolOption func(*Pool)

// WithConfig replaces the whole machine configuration the pool builds
// its machines with.
func WithConfig(cfg machine.Config) PoolOption {
	return func(p *Pool) { p.cfg = cfg }
}

// WithPoolSize caps the machines built per image (<= 0 selects
// GOMAXPROCS(0)).
func WithPoolSize(n int) PoolOption {
	return func(p *Pool) { p.size = n }
}

// WithWarm makes the pool warm each image's full machine complement
// on its first query (the paper's warm-run protocol), so even the
// first client-visible query runs on warm simulated caches. Without
// it, Warm stays available as an explicit call.
func WithWarm(on bool) PoolOption {
	return func(p *Pool) { p.autoWarm = on }
}

// WithProfiling arms pool-wide per-predicate cycle profiling from the
// first machine built; read the aggregate with Profile.
func WithProfiling(on bool) PoolOption {
	return func(p *Pool) {
		if on {
			p.EnableProfiling()
		}
	}
}

// New creates a machine pool. With no options it serves each image
// with up to GOMAXPROCS(0) default-configuration machines.
func New(options ...PoolOption) *Pool {
	p := &Pool{
		images: make(map[*asm.Image]*imagePool),
		dyn:    make(map[*machine.Machine]*dynState),
	}
	for _, opt := range options {
		opt(p)
	}
	if p.size <= 0 {
		p.size = runtime.GOMAXPROCS(0)
	}
	return p
}

// Size is the per-image machine cap.
func (p *Pool) Size() int { return p.size }

// PoolStats is a point-in-time occupancy snapshot, the pool half of
// the kcmd /v1/stats endpoint.
type PoolStats struct {
	Size   int `json:"size"`   // per-image machine cap
	Images int `json:"images"` // distinct images served
	Built  int `json:"built"`  // machines in existence
	Idle   int `json:"idle"`   // machines parked in free lists
	InUse  int `json:"in_use"` // Built - Idle: leased to queries/sessions
}

// Stats reports pool occupancy across all images. Machines held by
// open sessions count as in use.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{Size: p.size, Images: len(p.images)}
	for _, ip := range p.images {
		st.Built += ip.built
		st.Idle += len(ip.free)
	}
	st.InUse = st.Built - st.Idle
	return st
}

// warmOnce runs Warm for im the first time the pool serves it.
func (p *Pool) warmOnce(ctx context.Context, im *asm.Image) error {
	p.mu.Lock()
	ip := p.images[im]
	if ip == nil {
		ip = &imagePool{im: im, free: make(chan *machine.Machine, p.size)}
		p.images[im] = ip
	}
	if ip.warmed {
		p.mu.Unlock()
		return nil
	}
	ip.warmed = true
	p.mu.Unlock()
	return p.Warm(ctx, im)
}

// EnableProfiling arms per-predicate cycle profiling for the pool:
// every machine built afterwards carries its own trace.Profiler (no
// cross-machine locking on the hot path), and each query's attribution
// is merged into one pool-wide aggregate after the query completes.
// Call it before the first Query — machines built earlier run
// unprofiled. Returns the aggregate; idempotent.
func (p *Pool) EnableProfiling() *trace.Agg {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.agg == nil {
		p.agg = trace.NewAgg()
		p.cfg.HookFactory = func() trace.Hook { return trace.NewProfiler() }
	}
	return p.agg
}

// Profile returns the pool-wide aggregated profile, or nil when
// profiling was never enabled.
func (p *Pool) Profile() *trace.Agg {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.agg
}

// harvest merges a machine's per-query profile into the pool
// aggregate. It must run after the query's last slice and before the
// machine is released (the next query's Reset clears the profiler).
func (p *Pool) harvest(m *machine.Machine) {
	p.mu.Lock()
	agg := p.agg
	p.mu.Unlock()
	if agg == nil {
		return
	}
	if prof, ok := m.Hook().(*trace.Profiler); ok {
		agg.Add(prof)
	}
}

// Option configures one pool query.
type Option func(*opts)

type opts struct {
	out    io.Writer
	budget uint64
}

// WithWriter directs the query's write/1 and nl/0 output to w. By
// default pooled queries discard output.
func WithWriter(w io.Writer) Option {
	return func(o *opts) { o.out = w }
}

// WithBudget bounds the query to n simulated instructions; exceeding
// it fails the query with machine.ErrStepBudget. The default is the
// pool configuration's MaxSteps (or the machine default when unset).
func WithBudget(n uint64) Option {
	return func(o *opts) { o.budget = n }
}

// Query runs a compiled query image to its first solution on a pooled
// machine: acquire (or build) a warm machine, reset its counters,
// re-boot it at the image's query entry, run under ctx, read the
// bindings back, release the machine. The returned Solution carries
// the same per-query counters a dedicated machine.Run would have
// produced — pooling changes who runs the query, not what it costs.
func (p *Pool) Query(ctx context.Context, im *asm.Image, options ...Option) (*core.Solution, error) {
	s, err := p.Begin(ctx, im, options...)
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
		// One-shot semantics: exhausting the budget is a hard error,
		// not a resumable suspension (hold a Session for that).
		return nil, fmt.Errorf("engine: %w: query exceeded %d steps",
			machine.ErrStepBudget, s.budget)
	}
	return s.Solution(), nil // the failed outcome, with its Result
}

// Warm builds the image's full complement of machines and brings each
// to the post-warm-run state, so later queries start from warm
// simulated caches (the paper's warm-run timing protocol). It is
// optional: Query builds machines on demand.
//
// Only the first machine actually executes the warm query; the rest
// are stamped from its snapshot (machine.Capture/Restore), which
// skips the simulation entirely and leaves every pool member in the
// byte-identical warm state a real run would have produced. Profiled
// or traced pools keep the per-machine real runs: their hooks observe
// warm-run events and their aggregates count every machine's cycles,
// which a stamp would silently skip.
func (p *Pool) Warm(ctx context.Context, im *asm.Image) error {
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		return fmt.Errorf("engine: image has no query entry point")
	}
	stamp := p.cfg.Hook == nil && p.cfg.HookFactory == nil
	var proto *snapshot.State
	// Hold all machines at once so every pool member gets one warm
	// state, instead of re-warming the same machine repeatedly.
	machines := make([]*machine.Machine, 0, p.size)
	var ip *imagePool
	defer func() {
		for _, m := range machines {
			// Warm runs are real simulated work; their cycles join the
			// pool profile like any query's.
			p.harvest(m)
			p.release(ip, m)
		}
	}()
	for i := 0; i < p.size; i++ {
		m, mip, err := p.acquire(ctx, im)
		if err != nil {
			return err
		}
		ip = mip
		machines = append(machines, m)
		m.Reset()
		m.SetOut(nil)
		if proto != nil {
			if err := m.Restore(proto); err == nil {
				continue
			}
			// A refused stamp (config drift, unexpected image state)
			// falls back to a real warm run below.
		}
		m.Begin(entry)
		if _, err := m.RunFor(ctx, 0); err != nil {
			return err
		}
		if stamp && proto == nil {
			if s, err := m.Capture(); err == nil {
				proto = s
			}
		}
	}
	return nil
}

// release returns a machine to the image pool — unless the query left
// it faulted. A fault can strike mid-instruction, leaving zone
// registers, shadow state and the trail mid-update; such a machine
// must not be handed to a later query on the strength of the next
// Reset alone. The discarded machine is replaced with a freshly built
// one immediately: a waiter may already be blocked on free with built
// at the cap, and decrementing built alone would strand it. Only if
// the replacement cannot be built (the config stopped being viable)
// does the slot close, mirroring acquire's build-error accounting.
func (p *Pool) release(ip *imagePool, m *machine.Machine) {
	if m.Err() == nil {
		ip.free <- m
		return
	}
	// The discarded machine's tenant delta dies with it; its
	// replacement starts at the boot frontier with no tenant.
	p.mu.Lock()
	delete(p.dyn, m)
	p.mu.Unlock()
	fresh, err := machine.New(ip.im, p.cfg)
	if err != nil {
		p.mu.Lock()
		ip.built--
		p.mu.Unlock()
		return
	}
	ip.free <- fresh
}

// acquire returns a machine for im: a free pooled one if available, a
// newly built one while under the cap, else it blocks until a machine
// is released or ctx is cancelled.
func (p *Pool) acquire(ctx context.Context, im *asm.Image) (*machine.Machine, *imagePool, error) {
	p.mu.Lock()
	ip := p.images[im]
	if ip == nil {
		ip = &imagePool{im: im, free: make(chan *machine.Machine, p.size)}
		p.images[im] = ip
	}
	select {
	case m := <-ip.free:
		p.mu.Unlock()
		return m, ip, nil
	default:
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
