// Package sched provides the campaign's worker-slot budget: one Pool per
// campaign caps the class searches in flight across every provider.
//
// Dispatch itself is not here: every atpg.GenerateAll run walks its own
// class list, in dispatch order, on its caller's goroutine, and searches one
// class at a time. It acquires a Pool slot once it has a class to search and
// releases it when the search ends, so a slot is held only by a running
// search, and the pool decides only how many runs search at once, never
// what any run computes.
//
// Verdict soundness is untouched by scheduling: Detected and Untestable are
// complete proofs, so any dispatch order yields the same terminal statuses.
// Only Aborted verdicts are order-sensitive (a pattern generated earlier may
// drop a class another order would have searched to the backtrack limit),
// and each run's order is fixed by its class list alone.
package sched

import (
	"context"
	"sync"

	"olfui/internal/obs"
)

// Pool is the campaign-global worker-slot budget: a counting semaphore a
// GenerateAll run acquires for the duration of one class search. One Pool
// per campaign caps the number of concurrent searches at the campaign budget
// no matter how many providers run at once.
//
// A nil *Pool is a valid no-op (no gating), so single-use callers of
// atpg.GenerateAll need not build one.
type Pool struct {
	slots chan struct{}

	mu     sync.Mutex
	active int
	peak   int

	mActive, mPeak *obs.Counter
}

// NewPool builds a pool of n worker slots (n < 1 is treated as 1). When reg
// is non-nil the pool maintains the "sched.workers.active" gauge and the
// high-water "sched.workers.peak" counter.
func NewPool(n int, reg *obs.Registry) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{
		slots:   make(chan struct{}, n),
		mActive: reg.Counter("sched.workers.active"),
		mPeak:   reg.Counter("sched.workers.peak"),
	}
}

// Acquire blocks until a slot is free or ctx is done; it reports whether the
// slot was acquired. On a nil pool it returns true immediately.
func (p *Pool) Acquire(ctx context.Context) bool {
	if p == nil {
		return true
	}
	select {
	case p.slots <- struct{}{}:
	default:
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			return false
		}
	}
	p.mu.Lock()
	p.active++
	if p.active > p.peak {
		p.peak = p.active
		p.mPeak.Add(1)
	}
	p.mu.Unlock()
	p.mActive.Add(1)
	return true
}

// Release returns a slot acquired with Acquire. No-op on a nil pool.
func (p *Pool) Release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
	p.mActive.Add(-1)
	<-p.slots
}
