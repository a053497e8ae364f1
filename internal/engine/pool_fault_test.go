package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
)

// TestPoolDiscardsFaultedMachines drives a pool with a mix of queries
// that fault (heap overflow with collection disabled) and queries that
// succeed, concurrently and for many rounds. A fault strikes
// mid-instruction and leaves the machine's zone registers in an
// undefined state, so the pool must discard faulted machines instead
// of re-pooling them; the test asserts that later queries still
// succeed (fresh machines replace discarded ones, the pool never
// wedges) and that faulting queries keep reporting ErrHeapOverflow
// rather than some corruption of a reused machine. Run under -race it
// also pins the discard path's locking.
func TestPoolDiscardsFaultedMachines(t *testing.T) {
	growSrc := "grow(0, []).\ngrow(N, [N|T]) :- N > 0, M is N - 1, grow(M, T).\n"
	bad := compileImage(t, growSrc, "grow(100000, _).")
	good := compileImage(t, growSrc, "grow(20, L).")

	p := engine.New(engine.WithConfig(machine.Config{
		GlobalBase: 0x10000, GlobalSize: 0x1000,
		GCOnOverflow: machine.Off,
	}), engine.WithPoolSize(2))

	const workers = 4
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := firstSolution(context.Background(), p, bad)
				if !errors.Is(err, machine.ErrHeapOverflow) {
					errs <- err
				}
				sol, err := firstSolution(context.Background(), p, good)
				if err != nil || !sol.Success {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pool query after faults: %v", err)
	}
}

// TestPoolRecoversHeapWithGC is the same pressure with collection left
// on: the garbage-making query completes inside the tiny heap because
// the pool machines collect on overflow, and the machines stay pooled
// (no fault, no discard).
func TestPoolRecoversHeapWithGC(t *testing.T) {
	churnSrc := "churn(0).\nchurn(N) :- mk(N, _), M is N - 1, churn(M).\nmk(N, [N, N, N, N]).\n"
	im := compileImage(t, churnSrc, "churn(2000).")
	p := engine.New(engine.WithConfig(machine.Config{
		GlobalBase: 0x10000, GlobalSize: 0x800,
	}), engine.WithPoolSize(2))
	for i := 0; i < 4; i++ {
		sol, err := firstSolution(context.Background(), p, im)
		if err != nil || !sol.Success {
			t.Fatalf("round %d: %v success=%v", i, err, sol != nil && sol.Success)
		}
		if sol.Result.GC.Collections == 0 {
			t.Fatalf("round %d: expected collections in a tiny heap", i)
		}
	}
}
