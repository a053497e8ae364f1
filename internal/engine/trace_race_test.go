package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// TestPoolTraceRace is TestPoolRace with observability armed: 8
// goroutines hammer a pool while, interleaved, each also drives
// budget-suspended core.Solutions sessions (RunFor slices that suspend
// and resume, plus Redo between solutions) carrying their own
// profiler and ring sink. Under -race this is the safety check for the
// tracing layer; the assertions are the conservation law under
// concurrency — each session's profiler equals its own machine's
// cycle counter — and that every ring saw events.
func TestPoolTraceRace(t *testing.T) {
	queens, ok := bench.ByName("queens")
	if !ok {
		t.Fatal("no queens program in the suite")
	}
	type job struct {
		prog  *core.Program
		query string
		want  string // expected Solution.String()
	}
	var jobs []job
	for _, pq := range []struct{ src, query string }{
		{nrevSrc, "nrev([1,2,3,4,5,6,7,8,9,10], R)."},
		{queens.Source, "queens(6, Qs)."},
		{zebraSrc, "zebra(Owner)."},
	} {
		prog := core.MustLoad(pq.src)
		sol, err := prog.Query(pq.query)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Success {
			t.Fatalf("%q failed single-threaded", pq.query)
		}
		jobs = append(jobs, job{prog: prog, query: pq.query, want: sol.String()})
	}
	pool := engine.New(engine.WithPoolSize(4))

	// Compile the pool images once, up front (compilation shares the
	// per-program symbol table and is not part of what this test
	// stresses).
	type poolJob struct {
		im   *asm.Image
		want string
	}
	var poolJobs []poolJob
	for _, j := range jobs {
		im, err := j.prog.CompileQuery(j.query)
		if err != nil {
			t.Fatal(err)
		}
		poolJobs = append(poolJobs, poolJob{im: im, want: j.want})
	}

	const goroutines, rounds = 8, 5
	errs := make(chan error, goroutines*2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := poolJobs[(g+r)%len(poolJobs)]
				sol, err := firstSolution(context.Background(), pool, j.im)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				if got := sol.String(); got != j.want {
					errs <- fmt.Errorf("goroutine %d round %d: %s, want %s", g, r, got, j.want)
					return
				}

				// Between pooled queries, run a private session that
				// suspends on a small instruction budget (forcing the
				// suspend/resume path) and enumerates two solutions
				// (forcing the Redo path), with its own profiler and
				// ring buffer attached.
				sj := jobs[(g+r+1)%len(jobs)]
				pr := trace.NewProfiler()
				ring := trace.NewRing(64)
				it, err := sj.prog.Solutions(sj.query,
					core.WithBudget(300),
					core.WithMaxSolutions(2),
					core.WithTrace(pr),
					core.WithTrace(ring))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: session: %w", g, r, err)
					return
				}
				suspensions, sols := 0, 0
				for {
					if it.Next() {
						sols++
						continue
					}
					if it.Suspended() {
						suspensions++
						continue // resume the slice
					}
					break
				}
				if it.Err() != nil {
					errs <- fmt.Errorf("goroutine %d round %d: session: %w", g, r, it.Err())
					return
				}
				if sols == 0 || suspensions == 0 {
					errs <- fmt.Errorf("goroutine %d round %d: session saw %d solutions, %d suspensions; the budget is not exercising suspend/resume",
						g, r, sols, suspensions)
					return
				}
				cyc := it.Solution().Result.Stats.Cycles
				if got := pr.Total(); got != cyc {
					errs <- fmt.Errorf("goroutine %d round %d: session profiler total %d != machine cycles %d",
						g, r, got, cyc)
					return
				}
				if ring.Seen() == 0 {
					errs <- fmt.Errorf("goroutine %d round %d: session ring saw no events", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
