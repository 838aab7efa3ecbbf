package atpg

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/sched"
	"olfui/internal/sim"
)

// Stats summarises one GenerateAll run. Class counts are over collapsed
// equivalence classes (the unit of ATPG work); the full-universe breakdown is
// available from Outcome.Status.
type Stats struct {
	Faults  int // uncollapsed universe size
	Classes int // collapsed classes targeted

	Detected   int // classes detected (by ATPG or dropped by simulation)
	Untestable int // classes proven untestable
	Aborted    int // classes abandoned at the backtrack limit

	// Learned counts the classes the static learning screen proved
	// untestable before any search dispatched (a subset of Untestable).
	Learned int

	SimDropped int // classes detected by fault simulation alone, never targeted
	Patterns   int // patterns in the emitted test set
	Backtracks int // total decision flips across all targeted faults
	// Decisions, Implications and GateEvals total the searches'
	// decision-stack pushes, implication passes and gate evaluations — the
	// raw work the telemetry layer tracks for throughput tuning (Stats keeps
	// them so sweeps and tests can reconcile against the obs counters).
	Decisions    int
	Implications int
	GateEvals    int
	Elapsed      time.Duration
}

// String renders a compact one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"%d faults / %d classes: %d detected (%d sim-dropped), %d untestable, %d aborted; %d patterns, %d backtracks, %v",
		s.Faults, s.Classes, s.Detected, s.SimDropped, s.Untestable, s.Aborted,
		s.Patterns, s.Backtracks, s.Elapsed.Round(time.Microsecond))
}

// Outcome is the full result of a GenerateAll run.
type Outcome struct {
	Stats Stats
	// Status classifies every fault of the universe: verdicts proven on
	// class representatives are spread to all class members. With
	// Options.Classes set, faults of untargeted classes stay Undetected.
	Status *fault.StatusMap
	// Patterns and States form the emitted test set, aligned index-wise
	// (States is all-X rows for purely combinational designs).
	Patterns []sim.Pattern
	States   []sim.Pattern
}

// workItem pairs a targeted class representative with its engine result and
// the worker that produced it (the coordinator acks per worker).
type workItem struct {
	wid int
	fid fault.FID
	res Result
}

// GenerateAll runs deterministic ATPG over the collapsed fault list of the
// universe (or the Options.Classes work list) with fault dropping: fault
// classes fan out to a bounded worker pool (one Engine per worker), and every
// pattern a worker generates is immediately fault-simulated against the
// remaining undetected classes so incidentally covered faults are dropped
// before more ATPG work is dispatched. The classic pattern-count/CPU-time
// tradeoff: the serial drop loop shrinks both the test set and the number of
// deterministic searches, while the workers keep the per-fault searches
// parallel.
//
// Workers pull classes rather than being dispatched to: each drains one
// work-stealing sched.Queue built over the class list in its given order, and
// a per-worker ack keeps a worker from taking its next class until the
// coordinator has graded its previous pattern — so fault dropping sees every
// pattern before more search work starts. A single worker takes the classes
// strictly in list order, so a one-worker run is fully deterministic.
// Dropped and learning-screened classes are pruned from the queue in flight.
//
// Cancelling ctx stops the run promptly — in-flight searches poll a shared
// flag once per decision step — and returns ctx.Err() after every worker has
// drained, so no goroutines outlive the call.
func GenerateAll(ctx context.Context, n *netlist.Netlist, u *fault.Universe, opts Options) (*Outcome, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// The collapse is recomputed per run rather than shared via Options:
	// Rep path-compresses (writes), so a shared instance would race across
	// concurrent runs. It is O(faults·α) — noise next to the search.
	collapse := fault.NewCollapse(u)
	reps := opts.Classes
	if reps == nil {
		for id := 0; id < u.NumFaults(); id++ {
			if collapse.Rep(fault.FID(id)) == fault.FID(id) {
				reps = append(reps, fault.FID(id))
			}
		}
	} else {
		for _, fid := range reps {
			if int(fid) < 0 || int(fid) >= u.NumFaults() {
				return nil, fmt.Errorf("atpg: class %d out of universe range", fid)
			}
			if collapse.Rep(fid) != fid {
				return nil, fmt.Errorf("atpg: class %d is not a collapse representative", fid)
			}
		}
	}
	status := fault.NewStatusMap(u)
	// The dropping grader must observe exactly what the engines observe and
	// inject exactly what they inject: under restricted observability a
	// pattern only drops a fault if the difference shows at a point the
	// scenario can actually see, and under multi-site injection it must
	// grade the same joint faulty machine the searches reason about.
	grader := opts.Grader
	if grader == nil {
		var err error
		if grader, err = sim.NewGraderSites(n, u, opts.ObsPoints, opts.Sites); err != nil {
			return nil, err
		}
		grader.Instrument(opts.Metrics)
	}

	// live is the incrementally pruned drop-candidate list: classes not yet
	// proven Detected or Untestable. Aborted classes stay live — a later
	// pattern may well cover a fault the deterministic search gave up on.
	// livePos[fid] tracks each class's slot for O(1) swap-removal, so a
	// pattern's grading cost tracks the shrinking remainder instead of
	// rescanning every targeted class. Built (and validated) before the
	// worker pool spawns so every error path leaves no goroutine behind.
	live := append([]fault.FID(nil), reps...)
	livePos := make([]int32, u.NumFaults())
	for i := range livePos {
		livePos[i] = -1
	}
	for i, fid := range live {
		if livePos[fid] != -1 {
			return nil, fmt.Errorf("atpg: class %d listed twice", fid)
		}
		livePos[fid] = int32(i)
	}

	ann := opts.Annotations
	if ann == nil {
		var err error
		if ann, err = n.Annotate(); err != nil {
			return nil, err
		}
	}
	learn := opts.Learn
	if learn == nil && !opts.NoLearn {
		var err error
		if learn, err = BuildLearning(n, opts.Metrics); err != nil {
			return nil, err
		}
	}
	// src is the lease queue workers drain. It shares the run's registry, so
	// sched.* counters and the queue-depth gauge aggregate across every run
	// of a campaign.
	src := sched.NewQueue(reps, sched.Options{Workers: workers, Metrics: opts.Metrics})

	out := &Outcome{Status: status}
	st := &out.Stats
	st.Faults = u.NumFaults()
	st.Classes = len(reps)

	// Telemetry handles resolve once per run. With a nil registry every
	// handle is nil and each record below costs one branch — the always-on
	// contract: no allocation and no lock on any per-verdict path.
	reg := opts.Metrics
	var (
		mClasses      = reg.Counter("atpg.classes")
		mDetected     = reg.Counter("atpg.classes.detected")
		mUntestable   = reg.Counter("atpg.classes.untestable")
		mAborted      = reg.Counter("atpg.classes.aborted")
		mSimDropped   = reg.Counter("atpg.classes.sim_dropped")
		mPatterns     = reg.Counter("atpg.patterns")
		mBacktracks   = reg.Counter("atpg.backtracks")
		mDecisions    = reg.Counter("atpg.decisions")
		mImplications = reg.Counter("atpg.implications")
		mGateEvals    = reg.Counter("atpg.gate_evals")
		mAbortLimit   = reg.Counter("atpg.abort.limit")
		mAbortCancel  = reg.Counter("atpg.abort.cancel")
		mDropGraded   = reg.Counter("atpg.drop.graded")
		mDropHits     = reg.Counter("atpg.drop.hits")
		mDropGradeNs  = reg.Counter("atpg.drop.grade_ns")
		mLearned      = reg.Counter("atpg.learned_untestable")
		hSearch       = reg.Histogram("atpg.search_ns")
		mQueueWait    = reg.Counter("sched.queue_wait_ns")
		hBusy         = reg.Histogram("sched.worker_busy_ns")
	)
	mClasses.Add(int64(len(reps)))

	commit := func(fid fault.FID, v Verdict) {
		if opts.Progress != nil {
			opts.Progress(fid, v)
		}
	}

	unlive := func(fid fault.FID) {
		// A resolved class needs no search: prune it from the queue too,
		// wherever it sits (no-op when already handed to a worker).
		src.Remove(fid)
		i := livePos[fid]
		if i < 0 {
			return
		}
		last := len(live) - 1
		moved := live[last]
		live[i] = moved
		livePos[moved] = i
		live = live[:last]
		livePos[fid] = -1
	}

	// FIRE-style screen: classes whose joint injection provably can never
	// activate resolve Untestable in constant time — before any worker, any
	// pattern grading, or any search sees them. The verdict is the same one
	// the engine would prove by exhaustion (such searches close without a
	// single decision), so screening is invisible to everything downstream
	// except the work saved; spreading over the collapse at the end applies
	// to screened classes exactly as to searched ones.
	if learn != nil {
		for _, fid := range reps {
			if !learn.ScreenInjection(opts.Sites.Expand(u.FaultOf(fid))) {
				continue
			}
			status.Set(fid, fault.Untestable)
			st.Untestable++
			st.Learned++
			mUntestable.Inc()
			mLearned.Inc()
			unlive(fid)
			commit(fid, Untestable)
		}
	}

	// Workers pull classes from src, gated per search by the (possibly nil,
	// then ungated) campaign worker pool. The per-worker ack keeps each
	// worker to one unprocessed result: it takes its next class only after
	// the coordinator graded its previous pattern, so dropping prunes the
	// queue before more search work starts. Spawning is skipped entirely
	// when the screen resolved every class.
	var cancelFlag atomic.Bool
	numWorkers := workers
	if numWorkers > len(live) {
		numWorkers = len(live)
	}
	results := make(chan workItem, numWorkers)
	ack := make([]chan struct{}, numWorkers)
	var wg sync.WaitGroup
	for wid := 0; wid < numWorkers; wid++ {
		ack[wid] = make(chan struct{}, 1)
		eng := NewWithAnnotations(n, ann, opts)
		eng.cancel = &cancelFlag
		wg.Add(1)
		go func(wid int, eng *Engine) {
			defer wg.Done()
			var busy int64
			defer func() {
				if busy > 0 {
					hBusy.Observe(busy)
				}
				// Return any unstarted lease remainder to the shared pool
				// for the run's other workers.
				src.Release(wid)
			}()
			for !cancelFlag.Load() {
				waitStart := time.Now()
				if !opts.Pool.Acquire(ctx) {
					return
				}
				fid, ok := src.Next(wid)
				if !ok {
					opts.Pool.Release()
					return
				}
				mQueueWait.Add(time.Since(waitStart).Nanoseconds())
				res := eng.Generate(u.FaultOf(fid))
				opts.Pool.Release()
				busy += res.Elapsed.Nanoseconds()
				results <- workItem{wid: wid, fid: fid, res: res}
				<-ack[wid]
			}
		}(wid, eng)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The coordinator owns the status map: it fault-simulates each
	// generated pattern, drops hits, and acks the producing worker. One set
	// collects every pattern's hits.
	dropped := fault.NewSet(u)
	done := ctx.Done()
	for {
		var w workItem
		var open bool
		select {
		case <-done:
			// Interrupt in-flight searches and keep draining (and acking)
			// results so every worker can exit.
			cancelFlag.Store(true)
			done = nil
			continue
		case w, open = <-results:
		}
		if !open {
			break
		}
		if ctx.Err() != nil {
			ack[w.wid] <- struct{}{}
			continue
		}
		st.Backtracks += w.res.Backtracks
		st.Decisions += w.res.Decisions
		st.Implications += w.res.Implications
		st.GateEvals += w.res.GateEvals
		mBacktracks.Add(int64(w.res.Backtracks))
		mDecisions.Add(int64(w.res.Decisions))
		mImplications.Add(int64(w.res.Implications))
		mGateEvals.Add(int64(w.res.GateEvals))
		hSearch.Observe(w.res.Elapsed.Nanoseconds())
		// A class dropped while its search was in flight needs no further
		// accounting — the verdicts cannot disagree, only overlap.
		if status.Get(w.fid) == fault.Undetected {
			switch w.res.Verdict {
			case Detected:
				status.Set(w.fid, fault.Detected)
				st.Detected++
				mDetected.Inc()
				unlive(w.fid)
				commit(w.fid, Detected)
				out.Patterns = append(out.Patterns, w.res.Pattern)
				out.States = append(out.States, w.res.State)
				st.Patterns++
				mPatterns.Inc()
				mDropGraded.Add(int64(len(live)))
				gradeStart := time.Now()
				dropped.Clear()
				grader.GradeInto(dropped,
					[]sim.Pattern{w.res.Pattern}, []sim.Pattern{w.res.State}, live)
				mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
				mDropHits.Add(int64(dropped.Count()))
				dropped.ForEach(func(fid fault.FID) {
					if status.Get(fid) == fault.Aborted {
						st.Aborted--
						mAborted.Add(-1)
					}
					status.Set(fid, fault.Detected)
					st.Detected++
					st.SimDropped++
					mDetected.Inc()
					mSimDropped.Inc()
					unlive(fid)
					commit(fid, Detected)
				})
			case Untestable:
				status.Set(w.fid, fault.Untestable)
				st.Untestable++
				mUntestable.Inc()
				unlive(w.fid)
				commit(w.fid, Untestable)
			case Aborted:
				status.Set(w.fid, fault.Aborted)
				st.Aborted++
				mAborted.Inc()
				if w.res.Abort == AbortCancel {
					mAbortCancel.Inc()
				} else {
					mAbortLimit.Inc()
				}
				commit(w.fid, Aborted)
			}
		}
		ack[w.wid] <- struct{}{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	status.SpreadClasses(collapse)
	st.Elapsed = time.Since(start)
	return out, nil
}
