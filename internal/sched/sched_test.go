package sched

import (
	"context"
	"testing"
	"time"

	"olfui/internal/obs"
)

// TestPool pins the worker-slot budget: Acquire blocks at capacity, Release
// frees a slot, sched.workers.peak tracks the high water, and a cancelled
// context unblocks a waiter. A nil pool is a no-op gate.
func TestPool(t *testing.T) {
	var nilPool *Pool
	if !nilPool.Acquire(context.Background()) {
		t.Fatal("nil pool must not gate")
	}
	nilPool.Release()

	reg := obs.New()
	p := NewPool(2, reg)
	if !p.Acquire(context.Background()) || !p.Acquire(context.Background()) {
		t.Fatal("free slots refused")
	}
	// Full: a waiter must block until Release, then get the slot.
	acquired := make(chan bool, 1)
	go func() {
		acquired <- p.Acquire(context.Background())
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire succeeded beyond capacity")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release()
	if ok := <-acquired; !ok {
		t.Fatal("waiter not admitted after Release")
	}
	if got := reg.Snapshot().Counter("sched.workers.peak"); got != 2 {
		t.Fatalf("sched.workers.peak = %d, want 2", got)
	}

	// Cancellation unblocks a waiter with false.
	ctx, cancel := context.WithCancel(context.Background())
	p2 := NewPool(1, nil)
	p2.Acquire(context.Background())
	res := make(chan bool, 1)
	go func() { res <- p2.Acquire(ctx) }()
	cancel()
	if ok := <-res; ok {
		t.Fatal("cancelled Acquire reported success")
	}
}
