// Package sched provides the campaign's dynamic work-distribution
// primitives: a chunked, lease-based class queue with work stealing (Queue)
// and a campaign-global worker-slot pool (Pool).
//
// Every atpg.GenerateAll run drains one Queue over its ordered class list.
// Instead of fixing each worker's share up front — where a cluster of hard
// (deep-backtrack, Aborted-prone) classes turns one share into the run's
// straggler — workers lease chunks on demand. Chunk sizes decay
// geometrically with the remaining load (guided self-scheduling;
// Polychronopoulos & Kuck, IEEE Trans. Computers 1987): large chunks early
// keep lease traffic and lock contention negligible, small chunks at the
// tail stop a single lease from hiding the last hard classes from idle
// workers, and once the shared pool runs dry an idle worker steals the
// unstarted half of the most loaded lease. A lone worker has nobody to
// steal from, so it takes the classes strictly in enqueue order, whatever
// the chunk size. The queue is also prunable in flight: fault dropping and
// the learning screen remove classes that no longer need a search, wherever
// they sit (shared pool or an unstarted lease).
//
// A lease is the unit a distributed-worker protocol would reuse: a chunk
// handed to a worker is exactly the work spec a remote worker would lease
// over the wire.
//
// Verdict soundness is untouched by scheduling: Detected and Untestable are
// complete proofs, so any dequeue order yields the same terminal statuses.
// Only Aborted verdicts are order-sensitive (a pattern generated earlier may
// drop a class another order would have searched to the backtrack limit).
package sched

import (
	"fmt"
	"sync"

	"olfui/internal/fault"
	"olfui/internal/obs"
)

// Per-class lifecycle inside a Queue.
const (
	stateQueued  uint8 = iota // in the shared pool or an unstarted lease
	stateStarted              // handed to a worker by Next
	stateRemoved              // pruned by Remove
)

// The chunk policy: a lease takes remaining/(chunkDecay*workers) classes,
// so each worker's first lease takes half its even share and consecutive
// leases shrink geometrically as the queue drains, down to one class: tail
// leases of a single class keep every worker busy until the queue is truly
// dry.
const chunkDecay = 2

// Options configures a Queue.
type Options struct {
	// Workers is the worker count the chunk-decay policy divides the
	// remaining load by; <1 is treated as 1. It should match the consumer's
	// concurrency but nothing breaks if it does not — worker IDs passed to
	// Next merely index lease slots, which grow on demand.
	Workers int
	// Metrics, when non-nil, receives the queue's instrumentation:
	// "sched.chunks" (leases taken), "sched.steals", and the
	// "sched.queue_depth" gauge (classes not yet handed out, campaign-wide
	// when queues share a registry). All nil-safe no-ops otherwise.
	Metrics *obs.Registry
}

// Queue is the chunked, lease-based work-stealing class queue. Build one
// with NewQueue; every method is safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	workers int

	// pending is the shared pool in enqueue order; entries before head are
	// spent, entries at or after it are leased lazily (removed classes are
	// skipped when popped, not compacted).
	pending []fault.FID
	head    int
	// lease[w] is worker w's unstarted chunk remainder, consumed
	// front-first and stolen from the tail.
	lease [][]fault.FID
	state map[fault.FID]uint8
	// live counts classes not yet handed out or removed, wherever they sit.
	live int

	mChunks, mSteals, mDepth *obs.Counter
}

// NewQueue builds a work-stealing queue over the given class
// representatives. The slice is copied; classes must be unique (the
// validation GenerateAll already applies to its class list).
func NewQueue(classes []fault.FID, opts Options) *Queue {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	q := &Queue{
		workers: opts.Workers,
		pending: append([]fault.FID(nil), classes...),
		state:   make(map[fault.FID]uint8, len(classes)),
	}
	for _, fid := range classes {
		q.state[fid] = stateQueued
	}
	q.live = len(q.state)
	reg := opts.Metrics
	q.mChunks = reg.Counter("sched.chunks")
	q.mSteals = reg.Counter("sched.steals")
	q.mDepth = reg.Counter("sched.queue_depth")
	q.mDepth.Add(int64(q.live))
	return q
}

// Live returns the number of classes not yet handed out or removed.
func (q *Queue) Live() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.live
}

// grow ensures lease slot w exists.
func (q *Queue) grow(w int) {
	if w < 0 {
		panic(fmt.Sprintf("sched: negative worker id %d", w))
	}
	for len(q.lease) <= w {
		q.lease = append(q.lease, nil)
	}
}

// chunkSize picks the next lease size under the geometric decay policy.
func (q *Queue) chunkSize() int {
	return max(q.live/(chunkDecay*q.workers), 1)
}

// Next hands worker w its next class: the front of its own lease, else a
// fresh chunk from the shared pool, else half of another worker's unstarted
// lease. ok is false once the queue is drained for good (no class will ever
// be returned again).
func (q *Queue) Next(w int) (fault.FID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.grow(w)
	for {
		// Drain the worker's own lease first (skipping pruned classes).
		for len(q.lease[w]) > 0 {
			fid := q.lease[w][0]
			q.lease[w] = q.lease[w][1:]
			if q.state[fid] != stateQueued {
				continue
			}
			return q.hand(fid)
		}
		if q.live == 0 {
			return 0, false
		}
		// Lease a fresh chunk from the shared pool.
		if q.head < len(q.pending) {
			n := q.chunkSize()
			for q.head < len(q.pending) && n > 0 {
				fid := q.pending[q.head]
				q.head++
				if q.state[fid] != stateQueued {
					continue
				}
				q.lease[w] = append(q.lease[w], fid)
				n--
			}
			if len(q.lease[w]) > 0 {
				q.mChunks.Inc()
				continue
			}
		}
		// The pool is dry but live classes remain: they sit in other
		// workers' unstarted leases. Steal the tail half of the most loaded
		// one so the queue's last hard classes spread instead of queueing
		// behind one straggler.
		victim, most := -1, 0
		for v := range q.lease {
			if v == w {
				continue
			}
			if n := q.liveIn(v); n > most {
				victim, most = v, n
			}
		}
		if victim < 0 {
			// live > 0 yet nothing in the pool or any other lease can only
			// mean the classes are pruned-but-uncompacted; treat as drained.
			return 0, false
		}
		take := (most + 1) / 2
		vl := q.lease[victim]
		for i := len(vl) - 1; i >= 0 && take > 0; i-- {
			fid := vl[i]
			vl = vl[:i]
			if q.state[fid] != stateQueued {
				continue
			}
			q.lease[w] = append(q.lease[w], fid)
			take--
		}
		q.lease[victim] = vl
		q.mSteals.Inc()
	}
}

// liveIn counts worker v's unstarted, unpruned lease classes.
func (q *Queue) liveIn(v int) int {
	n := 0
	for _, fid := range q.lease[v] {
		if q.state[fid] == stateQueued {
			n++
		}
	}
	return n
}

// hand marks fid started and returns it. Callers hold q.mu.
func (q *Queue) hand(fid fault.FID) (fault.FID, bool) {
	q.state[fid] = stateStarted
	q.live--
	q.mDepth.Add(-1)
	return fid, true
}

// Remove prunes a class that no longer needs a search (dropped by fault
// simulation, screened by learning). It returns false when the class was
// already handed out or removed.
func (q *Queue) Remove(fid fault.FID) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	st, known := q.state[fid]
	if !known || st != stateQueued {
		return false
	}
	q.state[fid] = stateRemoved
	q.live--
	q.mDepth.Add(-1)
	return true
}
