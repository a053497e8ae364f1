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
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/machine"
)

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
	if _, err := m.Run(entry); err != nil {
		b.Fatal(err)
	}
	var stats machine.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResetStats()
		if _, err := m.Run(entry); err != nil {
			b.Fatal(err)
		}
		stats = m.Stats()
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

// BenchmarkHostPoolNrev times warm nrev throughput through an
// engine.Pool under concurrent load: RunParallel issues queries from
// GOMAXPROCS goroutines against one pool of warm machines sharing the
// compiled image. Run with -cpu 1,4,8 to measure scaling; each
// simulated machine is independent, so throughput should track
// available cores (scripts/hostbench.sh records this in
// BENCH_<n>.json together with the host's CPU count).
func BenchmarkHostPoolNrev(b *testing.B) {
	p, _ := bench.ByName("nrev1")
	im, err := bench.Compile(p, true)
	if err != nil {
		b.Fatal(err)
	}
	pool := engine.New() // GOMAXPROCS machines
	if err := pool.Warm(context.Background(), im); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sol, err := pool.Query(ctx, im)
			if err != nil {
				b.Fatal(err)
			}
			if !sol.Success {
				b.Fatal("nrev failed")
			}
		}
	})
}

// BenchmarkHostWarmBoot times the pool's per-machine warm protocol as
// it ran before snapshot stamping: a full reset plus one complete
// warm run on an already-constructed machine. This is the per-sibling
// cost that Warm used to pay pool-wide.
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
	if _, err := m.Run(entry); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostWarmRestore times the same warm state arriving by
// snapshot stamp instead: one machine runs the warm protocol once and
// is captured; every iteration restores that snapshot onto a sibling
// — the engine.Pool Warm path for every machine after the first. The
// ratio to BenchmarkHostWarmBoot is the warm-boot speedup recorded in
// BENCH_10.json.
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
	if _, err := proto.Run(entry); err != nil {
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
		if _, err := m.Run(entry); err != nil {
			b.Fatal(err)
		}
	}
}
