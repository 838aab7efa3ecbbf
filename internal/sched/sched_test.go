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

// TestStaticFIFOOrder pins the single-worker contract: a one-worker queue
// hands out classes in exactly the enqueued order, whatever its chunk size —
// the static order GenerateAll's deterministic single-worker runs rely on.
func TestStaticFIFOOrder(t *testing.T) {
	in := fids(7, 3, 11, 0, 5)
	q := NewQueue(in, Options{Workers: 1})
	for i, want := range in {
		got, ok := q.Next(0)
		if !ok || got != want {
			t.Fatalf("pop %d: got (%d,%v), want %d", i, got, ok, want)
		}
	}
	if _, ok := q.Next(0); ok {
		t.Fatal("drained queue still yields classes")
	}
}

// TestExactlyOnce: however many workers pull concurrently, every class is
// handed out exactly once and the queue drains exactly when all are handed.
func TestExactlyOnce(t *testing.T) {
	const n, workers = 500, 8
	q := NewQueue(seq(n), Options{Workers: workers})
	var mu sync.Mutex
	got := map[fault.FID]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				fid, ok := q.Next(w)
				if !ok {
					return
				}
				mu.Lock()
				got[fid]++
				mu.Unlock()
			}
		}(w)
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
	if live := q.Live(); live != 0 {
		t.Fatalf("drained queue reports %d live", live)
	}
}

// TestRemoveSemantics pins the tombstone rules: removing a queued class
// succeeds once and it is never handed out; removing an unknown, started, or
// already-removed class reports false.
func TestRemoveSemantics(t *testing.T) {
	q := NewQueue(fids(1, 2, 3), Options{})
	if q.Remove(99) {
		t.Fatal("removed a class the queue never held")
	}
	if !q.Remove(2) || q.Remove(2) {
		t.Fatal("queued class must remove exactly once")
	}
	first, ok := q.Next(0)
	if !ok {
		t.Fatal("queue empty after one removal")
	}
	if q.Remove(first) {
		t.Fatal("removed a class already handed to a worker")
	}
	rest, ok := q.Next(0)
	if !ok {
		t.Fatal("second live class missing")
	}
	if first == 2 || rest == 2 || first == rest {
		t.Fatalf("handed out %d then %d with 2 removed", first, rest)
	}
	if _, ok := q.Next(0); ok {
		t.Fatal("queue must be dry: two handed, one removed")
	}
}

// TestChunkDecay: lease sizes shrink geometrically as the queue drains, and
// the shared pool always yields work while live classes remain unleased.
func TestChunkDecay(t *testing.T) {
	q := NewQueue(seq(128), Options{Workers: 2})
	// First lease: 128/(2*2) = 32 classes for worker 0.
	if _, ok := q.Next(0); !ok {
		t.Fatal("no first chunk")
	}
	if n := q.liveInLocked(0); n != 31 { // 32 leased, 1 handed out
		t.Fatalf("first lease remainder %d, want 31", n)
	}
	// Worker 1's first lease divides the remaining live load (127 — leased
	// but unstarted classes still count): 127/(2*2) = 31.
	if _, ok := q.Next(1); !ok {
		t.Fatal("no second chunk")
	}
	if n := q.liveInLocked(1); n != 30 {
		t.Fatalf("second lease remainder %d, want 30", n)
	}
}

// liveInLocked is a test helper: the unstarted lease size of worker v.
func (q *Queue) liveInLocked(v int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.liveIn(v)
}

// TestSkewStealing is the planted-hard-cluster stress: worker 0 leases a
// large early chunk and then stalls on its first class (the hard cluster);
// the other workers must drain everything else and then STEAL worker 0's
// unstarted lease rather than idle — no worker sees an empty queue while
// live classes remain, which is the scheduler's whole reason to exist.
func TestSkewStealing(t *testing.T) {
	const n, workers = 256, 4
	reg := obs.New()
	q := NewQueue(seq(n), Options{Workers: workers, Metrics: reg})

	// Worker 0 takes the big head lease (256/8 = 32 classes) and stalls.
	first, ok := q.Next(0)
	if !ok {
		t.Fatal("no work for the stalling worker")
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	drained := map[fault.FID]bool{first: true}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				fid, ok := q.Next(w)
				if !ok {
					return
				}
				mu.Lock()
				// Next must never run dry while live classes remain; Live()
				// counting only unhanded classes makes this checkable.
				drained[fid] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Everything except worker 0's single in-flight class must be drained:
	// the thieves emptied the shared pool AND worker 0's unstarted lease.
	if len(drained) != n {
		t.Fatalf("drained %d classes with a stalled worker, want %d", len(drained), n)
	}
	snap := reg.Snapshot()
	if steals := snap.Counter("sched.steals"); steals == 0 {
		t.Fatal("no steals despite a stalled worker holding a large lease")
	}
	if chunks := snap.Counter("sched.chunks"); chunks == 0 {
		t.Fatal("no chunk leases recorded")
	}
	if depth := snap.Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("queue depth gauge ends at %d, want 0", depth)
	}
}

// TestConcurrentChurn is the -race stress: many workers draining one queue
// through its chunk leases and steals while they remove classes from it
// concurrently. Correctness bar: no class is handed out twice and the run
// terminates.
func TestConcurrentChurn(t *testing.T) {
	const n, workers = 2000, 16
	q := NewQueue(seq(n), Options{Workers: workers})
	var handed [n]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				fid, ok := q.Next(w)
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
		}(w)
	}
	wg.Wait()
	for fid, c := range handed {
		if c > 1 {
			t.Fatalf("class %d handed out %d times", fid, c)
		}
	}
}

// TestPool pins the worker-slot budget: Acquire blocks at capacity, Release
// frees a slot, Peak tracks the high water, and a cancelled context unblocks
// a waiter. A nil pool is a no-op gate.
func TestPool(t *testing.T) {
	var nilPool *Pool
	if !nilPool.Acquire(context.Background()) {
		t.Fatal("nil pool must not gate")
	}
	nilPool.Release()

	reg := obs.New()
	p := NewPool(2, reg)
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d", p.Cap())
	}
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
	if p.Peak() != 2 {
		t.Fatalf("Peak = %d, want 2", p.Peak())
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
