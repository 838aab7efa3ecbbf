// Package sched provides the campaign's work-distribution primitives: a
// prunable class cursor (Queue) and a campaign-global worker-slot pool
// (Pool).
//
// Every atpg.GenerateAll run drains one Queue over its class list, which
// GenerateAll has already put in dispatch order. The queue is a cursor over
// that list: whichever worker asks next gets the next class not yet handed
// out or removed, so every worker count walks one order, and a lone worker
// takes the classes strictly in list order. The queue is also prunable in
// flight: fault dropping removes classes that no longer need a search,
// wherever they sit in the list.
//
// Verdict soundness is untouched by scheduling: Detected and Untestable are
// complete proofs, so any dequeue order yields the same terminal statuses.
// Only Aborted verdicts are order-sensitive (a pattern generated earlier may
// drop a class another order would have searched to the backtrack limit).
package sched

import (
	"sync"

	"olfui/internal/fault"
	"olfui/internal/obs"
)

// Queue is the class cursor. Build one with NewQueue; every method is safe
// for concurrent use.
type Queue struct {
	mu sync.Mutex
	// order is the class list in dispatch order. Every queued class sits in
	// order[next:]; removed ones are skipped when the cursor reaches them.
	order []fault.FID
	next  int
	// queued[fid] reports that the class is neither handed out nor removed.
	// The classes are representatives of one universe, so their FIDs are
	// dense enough to index by.
	queued []bool

	mDepth *obs.Counter
}

// NewQueue builds a cursor over the given class representatives, in the
// given order. The queue retains the slice and only reads it; classes must
// be unique (the validation GenerateAll already applies to its class list).
// When reg is non-nil the queue maintains the "sched.queue_depth" gauge:
// classes not yet handed out or removed, campaign-wide when queues share a
// registry.
func NewQueue(classes []fault.FID, reg *obs.Registry) *Queue {
	size := 0
	for _, fid := range classes {
		size = max(size, int(fid)+1)
	}
	q := &Queue{
		order:  classes,
		queued: make([]bool, size),
		mDepth: reg.Counter("sched.queue_depth"),
	}
	for _, fid := range classes {
		q.queued[fid] = true
	}
	q.mDepth.Add(int64(len(classes)))
	return q
}

// Next hands the caller the next queued class of the list. ok is false once
// the queue is drained for good (no class will ever be returned again).
func (q *Queue) Next() (fault.FID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.next < len(q.order) {
		fid := q.order[q.next]
		q.next++
		if q.queued[fid] {
			q.queued[fid] = false
			q.mDepth.Add(-1)
			return fid, true
		}
	}
	return 0, false
}

// Remove prunes a class that no longer needs a search (dropped by fault
// simulation). It returns false when the class was
// never queued, or was already handed out or removed.
func (q *Queue) Remove(fid fault.FID) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if fid < 0 || int(fid) >= len(q.queued) || !q.queued[fid] {
		return false
	}
	q.queued[fid] = false
	q.mDepth.Add(-1)
	return true
}

// Close retires the queue: every class still queued is removed, so the depth
// gauge sheds what a cancelled or failed run leaves behind, and Next reports
// the queue drained from then on. Closing a drained queue changes nothing.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	left := 0
	for _, fid := range q.order[q.next:] {
		if q.queued[fid] {
			q.queued[fid] = false
			left++
		}
	}
	q.next = len(q.order)
	q.mDepth.Add(-int64(left))
}
