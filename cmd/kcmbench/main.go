// Command kcmbench regenerates the tables and experiments of the
// paper's evaluation section (section 4) plus the in-text cache study
// and the hardware-unit ablations.
//
// Usage:
//
//	kcmbench            # everything
//	kcmbench -table 2   # one table: 1, 2, 3, 4, cache, shallow, deref, trail
//
// Profiling the simulator itself (the host, not the simulated
// machine — simulated numbers come from the tables):
//
//	kcmbench -cpuprofile cpu.pprof          # pprof CPU profile of the run
//	kcmbench -memprofile mem.pprof          # heap profile at exit
//	kcmbench -hostprofile nrev1             # per-opcode host ns for one program
//
// Profiling the simulated machine (where the paper's cycles go,
// predicate by predicate, next to the whole-run tables):
//
//	kcmbench -predprofile queens            # one program's warm-run profile
//	kcmbench -predprofile all               # the whole suite
//	kcmbench -predprofile nrev1 -heap 256   # ... in a tiny heap (GC shows up as <gc>)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// predProfile runs one benchmark program under the warm-run protocol
// with the per-predicate cycle profiler attached and prints where the
// simulated cycles go. The profiler self-clears on the counter reset
// between the runs, so the tables cover exactly the timed (warm) run
// and their total equals the reported cycle count.
func predProfile(name string, heapWords uint32) error {
	p, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown program %q", name)
	}
	pr := trace.NewProfiler()
	cfg := machine.Config{Hook: pr}
	if heapWords > 0 {
		cfg.GlobalBase, cfg.GlobalSize = machine.DefGlobalBase, heapWords
	}
	r, err := bench.RunKCMWarm(p, false, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Predicate cycle profile of %s (warm run: %d cycles, %.3f ms)\n",
		name, r.Stats.Cycles, r.Millis())
	if g := r.Result.GC; g.Collections > 0 {
		fmt.Printf("gc: %d collections, %d words freed, %d cycles\n",
			g.Collections, g.FreedWords, g.Cycles)
	}
	trace.RenderProfile(os.Stdout, pr.Rows(), pr.Total())
	fmt.Println()
	return nil
}

func predProfileAll(heapWords uint32) error {
	for _, p := range bench.Suite {
		if err := predProfile(p.Name, heapWords); err != nil {
			return err
		}
	}
	return nil
}

// hostProfile runs one benchmark program twice (cold, then warm — the
// steady state the predecode work targets) with the per-opcode
// host-time monitor on, and prints where the interpreter's wall-clock
// time goes.
func hostProfile(name string, heapWords uint32) error {
	p, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown program %q", name)
	}
	im, err := bench.Compile(p, true)
	if err != nil {
		return err
	}
	cfg := machine.Config{HostProfile: true}
	if heapWords > 0 {
		cfg.GlobalBase, cfg.GlobalSize = machine.DefGlobalBase, heapWords
	}
	m, err := machine.New(im, cfg)
	if err != nil {
		return err
	}
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		return fmt.Errorf("%s: no query entry", name)
	}
	for i := 0; i < 2; i++ {
		m.ResetStats()
		if _, err := m.Run(entry); err != nil {
			return err
		}
	}
	fmt.Printf("Host-time profile of %s (2 runs, warm second)\n", name)
	fmt.Println(machine.RenderHostProfile(m.HostProfile()))
	return nil
}

// serveBench is the kcmd load-generator benchmark (the BENCH_8
// artifact): an in-process daemon on an ephemeral loopback port,
// hammered by N concurrent clients with a mix of single-shot queries,
// session-driven enumerations and NDJSON streams, reporting a
// latency histogram per op and the daemon's own /v1/stats snapshot.
func serveBench(clients, queries int, rate float64, poolSize int) error {
	const listsSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`
	queens, ok := bench.ByName("queens")
	if !ok {
		return fmt.Errorf("queens program missing from the suite")
	}
	srv, err := server.New(server.Config{
		Programs: map[string]string{
			"lists":  listsSrc,
			"queens": queens.Source,
		},
		PoolOptions: []engine.PoolOption{
			engine.WithPoolSize(poolSize),
		},
		IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	c := client.New("http://" + l.Addr().String())
	mix := []client.LoadOp{
		{Name: "nrev30-single", Kind: client.OpQuery, MinSolutions: 1,
			Req: wire.QueryRequest{Program: "lists",
				Goal: "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30], R)."}},
		{Name: "queens6-enum", Kind: client.OpEnumerate, MinSolutions: 4,
			Req: wire.QueryRequest{Program: "queens", Goal: "queens(6, Qs).", Budget: 200_000}},
		{Name: "member-stream", Kind: client.OpStream, MinSolutions: 10,
			Req: wire.QueryRequest{Program: "lists", Goal: "member(X, [1,2,3,4,5,6,7,8,9,10])."}},
		{Name: "queens7-single", Kind: client.OpQuery, MinSolutions: 1,
			Req: wire.QueryRequest{Program: "queens", Goal: "queens(7, Qs)."}},
	}
	rep, err := client.RunLoad(ctx, c, client.LoadConfig{
		Clients:          clients,
		QueriesPerClient: queries,
		RatePerClient:    rate,
		Mix:              mix,
	})
	if err != nil {
		return err
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve exit: %w", err)
	}
	out := struct {
		BenchID  string             `json:"bench_id"`
		Protocol string             `json:"protocol"`
		HostCPUs int                `json:"host_cpus"`
		Load     *client.LoadReport `json:"load"`
		Server   wire.StatsReply    `json:"server"`
	}{
		BenchID: "8",
		Protocol: "kcmd on an ephemeral loopback port; N concurrent clients round-robin a " +
			"single-shot/enumerate/stream mix through internal/client (see kcmbench -serve)",
		HostCPUs: runtime.NumCPU(),
		Load:     rep,
		Server:   stats,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() {
	table := flag.String("table", "all", "table to regenerate: 1, 2, 3, 4, cache, shallow, deref, trail, all")
	serve := flag.Bool("serve", false, "run the kcmd load-generator benchmark and print its JSON report")
	clients := flag.Int("clients", 8, "concurrent clients for -serve")
	queries := flag.Int("queries", 40, "ops per client for -serve")
	rate := flag.Float64("rate", 0, "target ops/s per client for -serve (0 = open throttle)")
	servePool := flag.Int("servepool", 0, "machines per image for -serve (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile of the simulator to `file`")
	hostprofile := flag.String("hostprofile", "", "print the per-opcode host-time profile of one benchmark `program` and exit")
	predprofile := flag.String("predprofile", "", "print the per-predicate simulated-cycle profile of one benchmark `program` (or \"all\") and exit")
	heap := flag.Uint64("heap", 0, "global stack (heap) size in `words` for -predprofile/-hostprofile runs (0 = default)")
	flag.Parse()

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "kcmbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	if *serve {
		if err := serveBench(*clients, *queries, *rate, *servePool); err != nil {
			fail("serve", err)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail("memprofile", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("memprofile", err)
			}
		}()
	}

	if *hostprofile != "" {
		if err := hostProfile(*hostprofile, uint32(*heap)); err != nil {
			fail("hostprofile", err)
		}
		return
	}
	if *predprofile != "" {
		var err error
		if *predprofile == "all" {
			err = predProfileAll(uint32(*heap))
		} else {
			err = predProfile(*predprofile, uint32(*heap))
		}
		if err != nil {
			fail("predprofile", err)
		}
		return
	}

	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "kcmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("1", func() error {
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println("Table 1: static code size comparison (paper avgs: KCM/PLM instr 1.10, bytes 2.96; SPUR/KCM instr 13.61, bytes 6.43)")
		fmt.Println(bench.RenderTable1(rows))
		return nil
	})
	run("2", func() error {
		rows, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Println("Table 2: comparison with PLM (paper avg ratio 3.05)")
		fmt.Println(bench.RenderTimeTable(rows, "PLM"))
		return nil
	})
	run("3", func() error {
		rows, err := bench.Table3()
		if err != nil {
			return err
		}
		fmt.Println("Table 3: comparison with QUINTUS/SUN3-280 (paper avg ratio 7.85)")
		fmt.Println(bench.RenderTimeTable(rows, "QUINTUS"))
		return nil
	})
	run("4", func() error {
		rows, err := bench.Table4()
		if err != nil {
			return err
		}
		fmt.Println("Table 4: peak performance of dedicated Prolog machines (paper KCM: 833 - 760)")
		fmt.Println(bench.RenderTable4(rows))
		return nil
	})
	run("cache", func() error {
		rows, err := bench.CacheStudy()
		if err != nil {
			return err
		}
		fmt.Println("Cache-collision study (section 3.2.4)")
		fmt.Println(bench.RenderCacheStudy(rows))
		return nil
	})
	run("shallow", func() error {
		rows, err := bench.AblationShallow()
		if err != nil {
			return err
		}
		fmt.Println("Ablation: shallow backtracking vs eager choice points")
		fmt.Println(bench.RenderShallow(rows))
		return nil
	})
	run("deref", func() error {
		rows, err := bench.AblationUnit("deref")
		if err != nil {
			return err
		}
		fmt.Println("Ablation: dereference hardware (1 cycle/link vs software loop)")
		fmt.Println(bench.RenderUnit(rows, "deref"))
		return nil
	})
	run("trail", func() error {
		rows, err := bench.AblationUnit("trail")
		if err != nil {
			return err
		}
		fmt.Println("Ablation: parallel trail check vs explicit comparisons")
		fmt.Println(bench.RenderUnit(rows, "trail"))
		return nil
	})
}
