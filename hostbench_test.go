// Host wall-clock benchmarks. Unlike the BenchmarkTable* harness,
// which reports *simulated* quantities (cycles at 80 ns, Klips), these
// measure what the Go interpreter itself costs on the host: ns per
// simulated run and allocations per run. They are the measurement
// side of the predecoded-code-cache work: the fetch-execute loop must
// run allocation-free in steady state, so every BenchmarkHost* warms
// the machine (one run fills the predecode tables, the logical caches
// and the page tables) before the timed iterations.
//
// `make bench` runs these and records the numbers in BENCH_<n>.json
// (see scripts/hostbench.sh); scripts/benchcmp.sh diffs two such
// files.
package repro

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/server"
	"repro/internal/term"
	"repro/internal/wire"
)

// runToHalt boots m at entry and runs it to halt or fault.
func runToHalt(m *machine.Machine, entry uint32) (machine.Result, error) {
	m.Begin(entry)
	_, err := m.RunFor(nil, 0)
	return m.Result(), err
}

// hostRun compiles the program once, boots one machine, warms it with
// a full run, then times repeated warm executions. This isolates the
// interpreter loop: compilation, linking and machine construction are
// outside the timer, exactly as the paper's warm-run protocol keeps
// cache fills out of its timings.
func hostRun(b *testing.B, p bench.Program) {
	b.Helper()
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if _, err := runToHalt(m, entry); err != nil {
		b.Fatal(err)
	}
	// Settle the runtime before the timer. ResetTimer stops the world,
	// and restarting it wakes an idle OS thread for the idle P, or
	// starts a new one (runtime.allocm) inside the timed window when
	// none is parked. At -benchtime 1x those few objects alone break
	// the 0 allocs/op gate although the simulator allocates nothing.
	// Collecting the setup's garbage now, then pausing while the
	// threads that ran the collector and its background sweeper and
	// scavenger park, leaves one idle.
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
	var stats machine.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		res, err := runToHalt(m, entry)
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.StopTimer()
	b.ReportMetric(stats.Klips(), "simulated-Klips")
	b.ReportMetric(float64(stats.Instrs)*float64(b.N)/float64(b.Elapsed().Nanoseconds())*1e3, "host-Mips")
}

// BenchmarkHostNrev times the nrev inner loop (nrev1*, the paper's
// peak-Klips workload): the hot path is concat steps, so this is the
// benchmark the 0 allocs/op gate in scripts/verify.sh watches.
func BenchmarkHostNrev(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	hostRun(b, p)
}

// BenchmarkHostQsort times qs4* (arithmetic + cut heavy).
func BenchmarkHostQsort(b *testing.B) {
	p, _ := bench.ByName("qs4")
	hostRun(b, p)
}

// BenchmarkHostQueens times queens* (deep backtracking).
func BenchmarkHostQueens(b *testing.B) {
	p, _ := bench.ByName("queens")
	hostRun(b, p)
}

// BenchmarkHostZebra times the real-size search program.
func BenchmarkHostZebra(b *testing.B) {
	hostRun(b, bench.Program{Name: "zebra", Source: zebraSrc, PureQuery: "zebra(_Owner)."})
}

// BenchmarkHostNrev300 times the miss-heavy run, bench.Nrev300: its
// warm heap outgrows the global stack's data-cache section, so about
// 92K of its 138K writes miss and evict a dirty line. It covers the
// fill and write-back path that BenchmarkHostNrev never reaches (warm
// nrev1 misses nothing), and the verify smoke holds it to 0 allocs/op.
func BenchmarkHostNrev300(b *testing.B) {
	hostRun(b, bench.Nrev300)
}

// BenchmarkHostPoolNrev times warm nrev throughput through an
// engine.Pool under concurrent load: RunParallel runs Begin, Next and
// Close from GOMAXPROCS goroutines against one pool of machines
// sharing the compiled image. Before the timer, Size() sessions are
// held at once and each runs the query, so every machine is built and
// warm. Run with -cpu 1,4,8 to measure scaling; each simulated machine
// is independent, so throughput should track available cores
// (scripts/hostbench.sh records this in BENCH_<n>.json together with
// the host's CPU count).
func BenchmarkHostPoolNrev(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	pool := engine.New() // GOMAXPROCS machines
	ctx := context.Background()
	// begin leases a machine and runs nrev to its solution.
	begin := func() (*engine.Session, error) {
		s, err := pool.Begin(ctx, im)
		if err != nil {
			return nil, err
		}
		if !s.Next(ctx) {
			err := fmt.Errorf("nrev failed: %v", s.Err())
			s.Close()
			return nil, err
		}
		return s, nil
	}
	warm := make([]*engine.Session, pool.Size())
	for i := range warm {
		if warm[i], err = begin(); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range warm {
		s.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s, err := begin()
			if err != nil {
				b.Error(err)
				return
			}
			s.Close()
		}
	})
}

// BenchmarkHostWarmBoot times a warm re-run: a full reset plus one
// complete run on an already-constructed, already-warm machine. It is
// the baseline for BenchmarkHostWarmRestore, which reaches the same
// warm state by restoring a snapshot instead of running the query.
func BenchmarkHostWarmBoot(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(im, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if _, err := runToHalt(m, entry); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := runToHalt(m, entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostWarmRestore times a snapshot restore: one machine runs
// the query once and is captured, and every iteration restores that
// snapshot onto a sibling machine. This is the cost a session pays to
// come back from a snapshot blob (engine.Pool.ResumeGoal), and what a
// parked session spilled to a blob would pay to resume. The ratio to
// BenchmarkHostWarmBoot is the speedup recorded in BENCH_10.json.
func BenchmarkHostWarmRestore(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := machine.New(im, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if _, err := runToHalt(proto, entry); err != nil {
		b.Fatal(err)
	}
	snap, err := proto.Capture()
	if err != nil {
		b.Fatal(err)
	}
	sibling, err := machine.New(im, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sibling.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostBoot times the cold path: machine construction, image
// load and a first (cache-cold, predecode-cold) run. Allocations here
// are expected — this tracks the cost of standing a machine up, the
// per-request cost of a serving deployment that boots a machine per
// query instead of pooling.
func BenchmarkHostBoot(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	entry, _ := im.Entry(compiler.QueryPI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(im, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runToHalt(m, entry); err != nil {
			b.Fatal(err)
		}
	}
}

// factsSrc is a program whose dynamic fact/1 holds fact(1) ..
// fact(16), as kcmdbench's tenant-rw serves it.
func factsSrc() string {
	var src strings.Builder
	src.WriteString(":- dynamic(fact/1).\n")
	for i := 1; i <= 16; i++ {
		fmt.Fprintf(&src, "fact(%d).\n", i)
	}
	return src.String()
}

// BenchmarkHostTenantChurn times the tenant path of the dynamic
// database end to end: one op is an assertz, a retract and a full
// fact(X) enumeration through a 1-machine pool, alternating between
// two 16-fact tenants so that every lease is a tenant switch (roll the
// other tenant's delta back, install this one's). history=N first runs
// N assert/retract pairs on each tenant outside the timer, so the two
// sub-benchmarks compare a fresh tenant with one that has a long
// mutation history behind it. Under go test compiler.Verify is on, so
// these rows include the compiler's verifier, which kcmd never runs;
// the verify=off rows repeat them with it off, as kcmd serves.
func BenchmarkHostTenantChurn(b *testing.B) {
	src := factsSrc()
	parse := func(text string) term.Term {
		t, err := reader.ParseTerm(text + " .")
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	goal, extra := parse("fact(X)"), parse("fact(extra)")
	pair := func(db *dyndb.DB) {
		if _, err := db.Assertz(extra); err != nil {
			b.Fatal(err)
		}
		if ok, _, err := db.Retract(extra); err != nil || !ok {
			b.Fatalf("retract: ok=%v err=%v", ok, err)
		}
	}
	rows := func(b *testing.B) {
		for _, history := range []int{0, 2000} {
			b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
				im, ds, err := core.MustLoad(src).BaseImage()
				if err != nil {
					b.Fatal(err)
				}
				seed, err := dyndb.New(im, ds.Order)
				if err != nil {
					b.Fatal(err)
				}
				for _, pi := range ds.Order {
					if _, err := seed.Reload(pi, ds.Clauses[pi]); err != nil {
						b.Fatal(err)
					}
				}
				tenants := []*dyndb.DB{seed.Clone(), seed.Clone()}
				for _, db := range tenants {
					for i := 0; i < history; i++ {
						pair(db)
					}
				}
				pool := engine.New(engine.WithPoolSize(1))
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					db := tenants[i%2]
					pair(db)
					s, err := pool.BeginDyn(ctx, db, goal)
					if err != nil {
						b.Fatal(err)
					}
					n := 0
					for s.Next(ctx) {
						n++
					}
					s.Close()
					if s.Err() != nil || n != 16 {
						b.Fatalf("enumerated %d facts (err=%v), want 16", n, s.Err())
					}
				}
			})
		}
	}
	rows(b)
	b.Run("verify=off", func(b *testing.B) {
		defer compiler.SetVerify(compiler.SetVerify(false))
		rows(b)
	})
}

// BenchmarkHostLease times one layer of a query's path: the lease
// plus Close on a warm 1-machine pool, with no instruction run.
// whole-image is Pool.Begin on core.Program.CompileQuery's image, the
// library and kcmbench path; segment is Pool.BeginGoal of a compiled
// goal over its program's seed database, the path every kcmd query
// takes. A segment lease drops the previous goal block, reuses the
// goal's last link, and reloads the block diff-aware, so a repeat
// lease writes no code.
func BenchmarkHostLease(b *testing.B) {
	nrev, _ := bench.ByName("nrev1")
	queens, _ := bench.ByName("queens")
	ctx := context.Background()
	run := func(b *testing.B, lease func() (*engine.Session, error)) {
		// One full enumeration warms the machine, as Warm does.
		s, err := lease()
		if err != nil {
			b.Fatal(err)
		}
		for s.Next(ctx) {
		}
		s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := lease()
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	}
	for _, c := range []struct{ name, src, goal string }{
		{"nrev30", nrev.Source, "list30(L), nrev(L, R)."},
		{"queens6", queens.Source, "queens(6, Qs)."},
	} {
		b.Run("whole-image/"+c.name, func(b *testing.B) {
			im, err := core.MustLoad(c.src).CompileQuery(c.goal)
			if err != nil {
				b.Fatal(err)
			}
			pool := engine.New(engine.WithPoolSize(1))
			run(b, func() (*engine.Session, error) { return pool.Begin(ctx, im) })
		})
		b.Run("segment/"+c.name, func(b *testing.B) {
			seed := seedOf(b, c.src)
			g := goalOf(b, seed, c.goal)
			pool := engine.New(engine.WithPoolSize(1))
			run(b, func() (*engine.Session, error) { return pool.BeginGoal(ctx, seed, g) })
		})
	}
}

// BenchmarkHostStream times one streamed query as a kcmd client sees
// it: one op is a client.Stream over loopback HTTP, read to its
// terminal line, against a server.Server on a 1-machine pool. The
// server's listener counts conn.Write calls, reported as writes/op:
// how many network writes the stream writer spends on one stream.
// tenant-facts16 is kcmdbench tenant-rw's stream, fact(X) for a tenant
// over 16 facts; member10 is serve-small's, a tenantless member over
// 10 atoms.
func BenchmarkHostStream(b *testing.B) {
	for _, c := range []struct {
		name, src string
		req       wire.QueryRequest
		sols      int
	}{
		{"tenant-facts16", factsSrc(), wire.QueryRequest{Goal: "fact(X).", Tenant: "t"}, 16},
		{"member10", demoSrc, wire.QueryRequest{Goal: "member(X, [a,b,c,d,e,f,g,h,i,j])."}, 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv, err := server.New(server.Config{
				Programs: map[string]string{"p": c.src},
				PoolSize: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var writes atomic.Int64
			ts := httptest.NewUnstartedServer(srv.Handler())
			ts.Listener = countingListener{ts.Listener, &writes}
			ts.Start()
			defer ts.Close()
			cl := client.New(ts.URL)
			ctx := context.Background()
			stream := func() {
				n := 0
				rep, err := cl.Stream(ctx, c.req, func(wire.Reply) bool { n++; return true })
				if err != nil || rep.Status != wire.StatusDone || n != c.sols {
					b.Fatalf("stream gave %d solutions, terminal %+v (err=%v), want %d and done", n, rep, err, c.sols)
				}
			}
			// The first stream compiles the goal, builds the machine and
			// opens the connection.
			stream()
			b.ReportAllocs()
			b.ResetTimer()
			writes.Store(0)
			for i := 0; i < b.N; i++ {
				stream()
			}
			b.StopTimer()
			b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
		})
	}
}

// countingListener counts every Write on the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}
