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
	dyn    map[*machine.Machine]*dynState // tenant delta each machine carries
}

// imagePool tracks the machines built for one image. free is buffered
// to the pool size, so release never blocks; built (guarded by
// Pool.mu) counts machines in existence, capping construction.
type imagePool struct {
	im    *asm.Image
	free  chan *machine.Machine
	built int
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
	p := &Pool{
		images: make(map[*asm.Image]*imagePool),
		dyn:    make(map[*machine.Machine]*dynState),
	}
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
// (Session.Suspended) and the next Next resumes. The default is the
// pool configuration's MaxSteps (or the machine default when unset).
func WithBudget(n uint64) Option {
	return func(o *opts) { o.budget = n }
}

// budget resolves a session's step budget: n when set, else the pool
// configuration's MaxSteps, else the machine default.
func (p *Pool) budget(n uint64) uint64 {
	if n == 0 {
		n = p.cfg.MaxSteps
	}
	if n == 0 {
		n = 1_000_000_000
	}
	return n
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
// is released or ctx is cancelled. With db set (im is then db's base
// image) the free machine is chosen by affinity: see pickFree.
func (p *Pool) acquire(ctx context.Context, im *asm.Image, db *dyndb.DB) (*machine.Machine, *imagePool, error) {
	p.mu.Lock()
	ip := p.images[im]
	if ip == nil {
		ip = &imagePool{im: im, free: make(chan *machine.Machine, p.size)}
		p.images[im] = ip
	}
	if m := p.pickFree(ip, db); m != nil {
		p.mu.Unlock()
		return m, ip, nil
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

// pickFree takes a free machine of ip, or returns nil when none is
// free. With db set it prefers one that last served db: that
// machine's delta is already installed and its simulated caches are
// warm for db's code. The caller holds p.mu, so no other acquirer
// interleaves with the drain of the free list (at most p.size long).
func (p *Pool) pickFree(ip *imagePool, db *dyndb.DB) *machine.Machine {
	if db == nil {
		select {
		case m := <-ip.free:
			return m
		default:
			return nil
		}
	}
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
	return pick
}
