package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestAcquireBlocksAndCancels exercises the wait path: with the only
// machine checked out, acquire blocks, honours cancellation with
// ErrCancelled, and succeeds again once the machine is released.
func TestAcquireBlocksAndCancels(t *testing.T) {
	im, err := core.MustLoad("p.\n").CompileQuery("p.")
	if err != nil {
		t.Fatal(err)
	}
	p := New(WithPoolSize(1))

	l, err := p.acquire(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.acquire(ctx, im, nil); !errors.Is(err, machine.ErrCancelled) {
		t.Fatalf("acquire on exhausted pool: %v, want ErrCancelled", err)
	}

	l.ip.free <- l
	l2, err := p.acquire(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.m != l.m {
		t.Fatal("released machine was not reused")
	}
	l2.ip.free <- l2
}
