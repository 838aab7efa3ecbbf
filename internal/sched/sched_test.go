package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"olfui/internal/fault"
	"olfui/internal/obs"
)

func fids(ids ...int) []fault.FID {
	out := make([]fault.FID, len(ids))
	for i, id := range ids {
		out[i] = fault.FID(id)
	}
	return out
}

func seq(n int) []fault.FID {
	out := make([]fault.FID, n)
	for i := range out {
		out[i] = fault.FID(i)
	}
	return out
}

// TestStaticFIFOOrder pins the cursor contract: with removals interleaved
// between pops, Next returns the surviving classes in exactly the list order
// — the order GenerateAll's deterministic single-worker runs rely on.
func TestStaticFIFOOrder(t *testing.T) {
	q := NewQueue(fids(7, 3, 11, 0, 5, 9, 2), nil)
	for i, step := range []struct {
		remove []fault.FID
		want   fault.FID
	}{
		{want: 7},
		{remove: fids(11, 5), want: 3},
		{want: 0},
		{remove: fids(2), want: 9},
	} {
		for _, fid := range step.remove {
			if !q.Remove(fid) {
				t.Fatalf("pop %d: queued class %d not removed", i, fid)
			}
		}
		if got, ok := q.Next(); !ok || got != step.want {
			t.Fatalf("pop %d: got (%d,%v), want %d", i, got, ok, step.want)
		}
	}
	if fid, ok := q.Next(); ok {
		t.Fatalf("drained queue still yields class %d", fid)
	}
}

// TestExactlyOnce: however many workers pull concurrently, every class is
// handed out exactly once and the queue drains exactly when all are handed.
func TestExactlyOnce(t *testing.T) {
	const n, workers = 500, 8
	reg := obs.New()
	q := NewQueue(seq(n), reg)
	var mu sync.Mutex
	got := map[fault.FID]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fid, ok := q.Next()
				if !ok {
					return
				}
				mu.Lock()
				got[fid]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("handed out %d distinct classes, want %d", len(got), n)
	}
	for fid, c := range got {
		if c != 1 {
			t.Fatalf("class %d handed out %d times", fid, c)
		}
	}
	if depth := reg.Snapshot().Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("drained queue reports depth %d", depth)
	}
}

// TestRemoveSemantics pins the tombstone rules: removing a queued class
// succeeds once and it is never handed out; removing an unknown, started, or
// already-removed class reports false. Close removes every class still
// queued, so the depth gauge reads 0 and nothing is handed out afterwards.
func TestRemoveSemantics(t *testing.T) {
	q := NewQueue(fids(1, 2, 3), nil)
	if q.Remove(99) || q.Remove(-1) {
		t.Fatal("removed a class the queue never held")
	}
	if !q.Remove(2) || q.Remove(2) {
		t.Fatal("queued class must remove exactly once")
	}
	first, ok := q.Next()
	if !ok {
		t.Fatal("queue empty after one removal")
	}
	if q.Remove(first) {
		t.Fatal("removed a class already handed to a worker")
	}
	rest, ok := q.Next()
	if !ok {
		t.Fatal("second live class missing")
	}
	if first == 2 || rest == 2 || first == rest {
		t.Fatalf("handed out %d then %d with 2 removed", first, rest)
	}
	if _, ok := q.Next(); ok {
		t.Fatal("queue must be dry: two handed, one removed")
	}

	reg := obs.New()
	q = NewQueue(fids(4, 5, 6), reg)
	q.Next()
	q.Close()
	if depth := reg.Snapshot().Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("closed queue reports depth %d", depth)
	}
	if fid, ok := q.Next(); ok {
		t.Fatalf("closed queue handed out class %d", fid)
	}
	if q.Remove(6) {
		t.Fatal("removed a class from a closed queue")
	}
	q.Close()
	if depth := reg.Snapshot().Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("closing twice moved the depth to %d", depth)
	}
}

// TestConcurrentChurn is the -race stress: many workers draining one queue
// while they remove classes from it concurrently. Correctness bar: no class
// is handed out twice and the run terminates.
func TestConcurrentChurn(t *testing.T) {
	const n, workers = 2000, 16
	q := NewQueue(seq(n), nil)
	var handed [n]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				fid, ok := q.Next()
				if !ok {
					return
				}
				mu.Lock()
				handed[fid]++
				mu.Unlock()
				// Interleave removals with the draining.
				if i%7 == 0 {
					q.Remove(fault.FID((int(fid) + 13) % n))
				}
				i++
			}
		}()
	}
	wg.Wait()
	for fid, c := range handed {
		if c > 1 {
			t.Fatalf("class %d handed out %d times", fid, c)
		}
	}
}

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
