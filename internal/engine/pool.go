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
	"runtime"
	"sync"

	"repro/internal/asm"
	"repro/internal/dyndb"
	"repro/internal/machine"
)

// Pool is a fixed-size pool of machines per compiled image. The zero
// value is not usable; call New.
type Pool struct {
	cfg  machine.Config
	size int

	mu     sync.Mutex
	images map[*asm.Image]*imagePool
}

// imagePool tracks the machines built for one image. free is buffered
// to the pool size, so release never blocks; built (guarded by
// Pool.mu) counts machines in existence, capping construction.
type imagePool struct {
	im    *asm.Image
	free  chan *lease
	built int
}

// lease is one pooled machine and what it carries: its image pool, the
// boot mark taken when it was built, and the database (with the view
// version) whose delta is installed, nil for none. A lease is either on
// its image pool's free list or held by one session. Only the holder
// writes it; the channel hand-over orders those writes before pickFree
// reads db on the free list.
type lease struct {
	m    *machine.Machine
	ip   *imagePool
	mark machine.CodeMark
	db   *dyndb.DB
	view dyndb.View
}

// PoolOption configures a Pool at construction. The options mirror
// core's query options, so server configuration and library
// configuration read identically.
type PoolOption func(*Pool)

// WithConfig replaces the whole machine configuration the pool builds
// its machines with. cfg.Hook must be nil: every machine would share
// it, and hooks are not safe for concurrent use, so New panics on a
// non-nil Hook. Trace one query through core.WithTrace instead.
// cfg.Out is ignored: pooled queries discard their output.
func WithConfig(cfg machine.Config) PoolOption {
	return func(p *Pool) { p.cfg = cfg }
}

// WithPoolSize caps the machines built per image (<= 0 selects
// GOMAXPROCS(0)).
func WithPoolSize(n int) PoolOption {
	return func(p *Pool) { p.size = n }
}

// New creates a machine pool. With no options it serves each image
// with up to GOMAXPROCS(0) default-configuration machines. It panics
// when WithConfig carries a trace hook (see WithConfig).
func New(options ...PoolOption) *Pool {
	p := &Pool{images: make(map[*asm.Image]*imagePool)}
	for _, opt := range options {
		opt(p)
	}
	if p.cfg.Hook != nil {
		panic("engine: WithConfig carries a trace hook, which every pooled machine would share")
	}
	p.cfg.Out = nil
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

// Option configures one pool query.
type Option func(*opts)

type opts struct {
	budget uint64
}

// WithBudget bounds each Next slice of the session to n simulated
// instructions; a slice that exhausts it suspends the session
// (Session.Suspended) and the next Next resumes. The default is
// machine.DefaultBudget.
func WithBudget(n uint64) Option {
	return func(o *opts) { o.budget = n }
}

// budget resolves a session's step budget: n when set, else the
// machine default.
func (p *Pool) budget(n uint64) uint64 {
	if n == 0 {
		return machine.DefaultBudget
	}
	return n
}

// build makes a machine for one of ip's slots, at the image's boot
// frontier. When the machine cannot be built (the config stopped being
// viable) the slot closes: built drops back so a later acquire may try
// again.
func (p *Pool) build(ip *imagePool) (*lease, error) {
	m, err := machine.New(ip.im, p.cfg)
	if err != nil {
		p.mu.Lock()
		ip.built--
		p.mu.Unlock()
		return nil, err
	}
	return &lease{m: m, ip: ip, mark: m.Snapshot()}, nil
}

// release returns a lease to its image pool — unless the query left
// the machine faulted. A fault can strike mid-instruction, leaving zone
// registers, shadow state and the trail mid-update; such a machine
// must not be handed to a later query on the strength of the next
// Reset alone. The discarded machine, and the tenant delta it carried,
// is replaced with a freshly built one immediately: a waiter may
// already be blocked on free with built at the cap, and decrementing
// built alone would strand it.
func (p *Pool) release(l *lease) {
	if l.m.Err() == nil {
		l.ip.free <- l
		return
	}
	if fresh, err := p.build(l.ip); err == nil {
		l.ip.free <- fresh
	}
}

// acquire leases a machine for im: a free pooled one if available, a
// newly built one while under the cap, else it blocks until a machine
// is released or ctx is cancelled. With db set (im is then db's base
// image) the free machine is chosen by affinity: see pickFree.
func (p *Pool) acquire(ctx context.Context, im *asm.Image, db *dyndb.DB) (*lease, error) {
	p.mu.Lock()
	ip := p.images[im]
	if ip == nil {
		ip = &imagePool{im: im, free: make(chan *lease, p.size)}
		p.images[im] = ip
	}
	if l := ip.pickFree(db); l != nil {
		p.mu.Unlock()
		return l, nil
	}
	if ip.built < p.size {
		ip.built++
		p.mu.Unlock()
		return p.build(ip)
	}
	p.mu.Unlock()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case l := <-ip.free:
		return l, nil
	case <-done:
		cause := ctx.Err()
		sentinel := machine.ErrCancelled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = machine.ErrDeadline
		}
		return nil, fmt.Errorf("engine: %w: waiting for a pooled machine: %w",
			sentinel, cause)
	}
}

// pickFree takes a free lease of ip, or returns nil when none is free.
// With db set it prefers one that last served db: that machine's delta
// is already installed and its simulated caches are warm for db's
// code. The caller holds Pool.mu, so no other acquirer interleaves
// with the drain of the free list (at most the pool size long).
func (ip *imagePool) pickFree(db *dyndb.DB) *lease {
	if db == nil {
		select {
		case l := <-ip.free:
			return l
		default:
			return nil
		}
	}
	var parked []*lease
	var pick *lease
drain:
	for {
		select {
		case l := <-ip.free:
			if pick == nil && l.db == db {
				pick = l
			} else {
				parked = append(parked, l)
			}
		default:
			break drain
		}
	}
	if pick == nil && len(parked) > 0 {
		pick, parked = parked[0], parked[1:]
	}
	for _, l := range parked {
		ip.free <- l
	}
	return pick
}
