// Command kcm compiles a Prolog program and runs a query on the KCM
// simulator, reporting the paper's metrics (ms at 80 ns/cycle, Klips)
// and the machine counters.
//
// Usage:
//
//	kcm [flags] program.pl...
//
// Example:
//
//	kcm -q 'nrev([1,2,3], R), write(R), nl.' nrev.pl
//	kcm -q 'member(X, [1,2,3]).' -n 0 lists.pl     # all solutions
//	kcm -q 'main.' -timeout 2s -budget 1000000 prog.pl
//	kcm -q 'main.' -profile queens.pl              # cycles by predicate
//	kcm -q 'main.' -tracejson t.jsonl -folded f.txt queens.pl
//	kcm -q 'main.' -trace queens.pl 2> trace.txt   # one line per event
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/term"
	"repro/internal/trace"
)

func main() {
	status, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcm:", err)
	}
	os.Exit(status)
}

// run is the whole command. It returns the exit status and the error
// to report instead of exiting, so the deferred trace flushes run on
// every path (a failed query, a fault, a timeout or a budget error is
// where a trace matters most) and the error prints after the trace.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("kcm", flag.ContinueOnError)
	var (
		query     = fs.String("q", "main.", "query goal to run")
		stats     = fs.Bool("stats", false, "print machine counters")
		cache     = fs.Bool("cache", false, "print cache statistics")
		traceText = fs.Bool("trace", false, "stream every trace event to stderr, one text line each in the golden-trace format (macrocode monitor; no register dump)")
		shallow   = fs.Bool("shallow", true, "enable shallow backtracking (delayed choice points)")
		prof      = fs.Bool("profile", false, "per-predicate cycle profile (flat + cumulative tables)")
		tracejson = fs.String("tracejson", "", "stream structured trace events to this JSONL file")
		folded    = fs.String("folded", "", "write folded stacks (flamegraph collapsed format) to this file")
		timeout   = fs.Duration("timeout", 0, "abort the query after this wall-clock duration (0 = none)")
		budget    = fs.Uint64("budget", 0, "abort after this many simulated instructions (0 = default bound)")
		nsols     = fs.Int("n", 1, "enumerate up to k solutions (0 = all)")
		heap      = fs.Uint64("heap", 0, "global stack (heap) size in words (0 = default)")
		gc        = fs.Bool("gc", true, "collect the heap on overflow instead of failing the query")
		gcmark    = fs.Uint64("gcwatermark", 0, "free words a collection must leave to retry (0 = heap/16)")
		gcthresh  = fs.Uint64("gcthreshold", 0, "also collect at call boundaries once the heap tops this many words (0 = overflow-only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: kcm [flags] program.pl...")
		fs.PrintDefaults()
		return 2, nil
	}
	var src strings.Builder
	for _, f := range fs.Args() {
		b, err := os.ReadFile(f)
		if err != nil {
			return 1, err
		}
		src.Write(b)
		src.WriteByte('\n')
	}
	prog, err := core.Load(src.String())
	if err != nil {
		return 1, err
	}
	cfg := machine.Config{Out: os.Stdout}
	if !*shallow {
		cfg.Shallow = machine.Off
	}
	if *heap > 0 {
		cfg.GlobalBase, cfg.GlobalSize = machine.DefGlobalBase, uint32(*heap)
	}
	if !*gc {
		cfg.GCOnOverflow = machine.Off
	}
	cfg.HeapWatermarkWords = uint32(*gcmark)
	cfg.GCThresholdWords = uint32(*gcthresh)
	opts := []core.QueryOption{core.WithConfig(cfg), core.WithMaxSolutions(*nsols)}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, core.WithContext(ctx))
	}
	if *budget > 0 {
		opts = append(opts, core.WithBudget(*budget))
	}

	var sinks []trace.Hook
	if *traceText {
		text := trace.NewText(os.Stderr)
		defer closeSink("trace", text)
		sinks = append(sinks, text)
	}
	if *tracejson != "" {
		f, err := os.Create(*tracejson)
		if err != nil {
			return 1, err
		}
		jsonl := trace.NewJSONL(f)
		defer closeSink("tracejson", jsonl, f)
		sinks = append(sinks, jsonl)
	}
	if h := trace.Tee(sinks...); h != nil {
		opts = append(opts, core.WithTrace(h))
	}
	var pr *trace.Profiler
	if *prof || *folded != "" {
		pr = trace.NewProfiler()
		opts = append(opts, core.WithTrace(pr))
	}

	sols, final, err := enumerate(prog, *query, *budget, opts)
	if err != nil {
		return 1, err
	}

	if *folded != "" && pr != nil {
		f, err := os.Create(*folded)
		if err != nil {
			return 1, err
		}
		werr := pr.WriteFolded(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 1, werr
		}
	}
	if !*prof {
		pr = nil
	}

	if len(sols) == 0 {
		fmt.Println("no")
		printStats(final, *stats, *cache, pr)
		return 1, nil
	}
	fmt.Println("yes")
	for i, sol := range sols {
		if len(sols) > 1 {
			fmt.Printf("solution %d:\n", i+1)
		}
		var names []string
		for v := range sol.Vars {
			names = append(names, string(v))
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s = %v\n", n, sol.Vars[term.Var(n)])
		}
	}
	printStats(sols[len(sols)-1], *stats, *cache, pr)
	return 0, nil
}

// closeSink flushes a trace sink, then closes the file it writes to,
// if any. An error is reported, not returned, since the query's own
// outcome is already decided.
func closeSink(name string, cs ...io.Closer) {
	for _, c := range cs {
		if err := c.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "kcm: %s: %v\n", name, err)
		}
	}
}

// enumerate collects up to the option-bounded number of solutions;
// final is the outcome carrying the machine counters (the last
// solution, or the failed result when there is none).
func enumerate(prog *core.Program, query string, budget uint64, opts []core.QueryOption) ([]*core.Solution, *core.Solution, error) {
	it, err := prog.Solutions(query, opts...)
	if err != nil {
		return nil, nil, err
	}
	var sols []*core.Solution
	for it.Next() {
		sols = append(sols, it.Solution())
	}
	if it.Err() != nil {
		return nil, nil, it.Err()
	}
	if it.Suspended() {
		if budget == 0 {
			budget = machine.DefaultBudget
		}
		return nil, nil, fmt.Errorf("query suspended: budget of %d instructions exhausted", budget)
	}
	final := it.Solution()
	if len(sols) > 0 {
		final = sols[len(sols)-1]
	}
	return sols, final, nil
}

// printStats reports the timing line and the optional counter blocks
// for the run that produced sol (counters are cumulative across an
// enumeration).
func printStats(sol *core.Solution, stats, cache bool, pr *trace.Profiler) {
	if sol == nil {
		return
	}
	s := sol.Result.Stats
	fmt.Printf("\n%.3f ms, %d inferences, %.0f Klips (%d cycles at %.0f ns)\n",
		s.Millis(), s.Inferences, s.Klips(), s.Cycles, s.NsPerCycle)
	if stats {
		fmt.Printf("instructions      %12d\n", s.Instrs)
		fmt.Printf("deref steps       %12d\n", s.DerefSteps)
		fmt.Printf("unify nodes       %12d\n", s.UnifyNodes)
		fmt.Printf("trail checks      %12d\n", s.TrailChecks)
		fmt.Printf("trail pushes      %12d\n", s.TrailPushes)
		fmt.Printf("shallow tries     %12d\n", s.ShallowTries)
		fmt.Printf("shallow fails     %12d\n", s.ShallowFails)
		fmt.Printf("deep fails        %12d\n", s.DeepFails)
		fmt.Printf("choice points     %12d\n", s.ChoicePoints)
		fmt.Printf("neck updates      %12d\n", s.NeckUpdates)
		fmt.Printf("determinate necks %12d\n", s.NeckDet)
		fmt.Printf("environments      %12d\n", s.EnvAllocs)
	}
	if g := sol.Result.GC; g.Collections > 0 {
		fmt.Printf("gc: %d collections, %d words freed, %d live, %d trail entries dropped, %d cycles\n",
			g.Collections, g.FreedWords, g.LiveWords, g.TrailDrops, g.Cycles)
	}
	if pr != nil {
		fmt.Println()
		trace.RenderProfile(os.Stdout, pr.Rows(), pr.Total())
	}
	if cache {
		d, c := sol.Result.DCache, sol.Result.CCache
		fmt.Printf("data cache: %d reads, %d writes, %.2f%% hits, %d writebacks\n",
			d.Reads, d.Writes, d.HitRatio()*100, d.WriteBacks)
		fmt.Printf("code cache: %d reads, %.2f%% hits\n", c.Reads, c.HitRatio()*100)
		m := sol.Result.Mem
		fmt.Printf("memory: %d reads, %d writes, %d page-mode hits\n", m.Reads, m.Writes, m.PageHits)
		fmt.Printf("mmu: %d translations, %d demand pages\n",
			sol.Result.DataMMU.Translations, sol.Result.DataMMU.PageFaults)
	}
}
