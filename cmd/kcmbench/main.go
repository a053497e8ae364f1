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
//
// For host time per opcode, profile the warm nrev loop unperturbed
// (from the repository root) and read the line view of the opcode
// switch:
//
//	go test -run '^$' -bench BenchmarkHostNrev -cpuprofile cpu.pprof .
//	go tool pprof -list 'Machine..exec$' cpu.pprof
//
// Profiling the simulated machine (where the paper's cycles go,
// predicate by predicate, next to the whole-run tables):
//
//	kcmbench -predprofile queens            # one program's warm-run profile
//	kcmbench -predprofile all               # the whole suite
//	kcmbench -predprofile nrev1 -heap 256   # ... in a tiny heap (GC shows up as <gc>)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/trace"
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

func main() {
	table := flag.String("table", "all", "table to regenerate: 1, 2, 3, 4, cache, shallow, deref, trail, all")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile of the simulator to `file`")
	predprofile := flag.String("predprofile", "", "print the per-predicate simulated-cycle profile of one benchmark `program` (or \"all\") and exit")
	heap := flag.Uint64("heap", 0, "global stack (heap) size in `words` for -predprofile runs (0 = default)")
	flag.Parse()

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "kcmbench: %s: %v\n", name, err)
		os.Exit(1)
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

	if err := bench.WriteTables(os.Stdout, *table); err != nil {
		fmt.Fprintf(os.Stderr, "kcmbench: %v\n", err)
		os.Exit(1)
	}
}
