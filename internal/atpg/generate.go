package atpg

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"olfui/internal/fault"
	"olfui/internal/logic"
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

	// Screened counts the classes the screen stage (sim.Grader.Screen)
	// retired as Untestable before any search dispatched (a subset of
	// Untestable).
	Screened int

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

	// Replayed counts the classes the Options.Replay test set detected
	// before any search (a subset of SimDropped), ReplayPatterns the rows it
	// graded and ReplayElapsed the time that grading took.
	Replayed       int
	ReplayPatterns int
	ReplayElapsed  time.Duration
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
	// (States rows are empty for designs without flip-flops). Every row is
	// fully specified: GenerateAll completes each search's partial
	// assignment (Result.Pattern) before emitting it, so no entry is X,
	// unless Options.Replay contributed rows that hold X.
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
// universe (or the Options.Classes subset) with fault dropping: fault
// classes fan out to a bounded worker pool (one Engine per worker), and every
// pattern a worker generates is immediately fault-simulated against the
// remaining undetected classes so incidentally covered faults are dropped
// before more ATPG work is dispatched. The classic pattern-count/CPU-time
// tradeoff: the serial drop loop shrinks both the test set and the number of
// deterministic searches, while the workers keep the per-fault searches
// parallel.
//
// Dispatch order: GenerateAll sorts the classes the replay leaves
// hardest-first (hardestFirst: descending SCOAP detection difficulty, ties in
// ascending FID order), and the screen stage and the workers walk that one
// order. Hard classes are searched while the most classes are still live, and
// each of their completed tests drops easy classes that would otherwise each
// cost a search. The replay needs no order: the grader finds its hits by
// walking nets, not the list, and resolves them in FID order, so the sort
// waits for it and orders only the classes it left. The order of
// Options.Classes does not matter.
//
// Before a worker hands a Detected result to the drop loop, it completes the
// test (completeTest): every X the search left in Result.Pattern and
// Result.State becomes a pseudo-random 0 or 1, drawn from a stream seeded
// only by the class representative's FID. This is sound: ternary simulation
// is monotone, so every completion keeps every definite value of the partial
// assignment, the observed fault effect included, and the completed test
// still detects its target. The filled inputs are the controllables the
// engine searches over, and scenario constraints are structural in the
// netlist, so a completed test is as legal as any assignment the search could
// pick. What it buys: a partial test leaves most nets X, and the grader can
// only drop faults whose effect shows on definite values; a completed test
// makes every net definite, so one test drops many more classes, and fewer
// classes reach a search. The seed makes a class's completed test the same in
// every run and at every worker count.
//
// With Options.Replay set, the drop grader first grades that test set
// against the class list, before the screen stage and before any worker
// starts: its hits resolve as simulation drops, and the words that dropped a
// class lead the emitted test set (see Replay).
//
// The screen stage then settles untestability before any search: the drop
// grader's static screen (sim.Grader.Screen) retires, over the sorted
// survivors, every class whose joint injection a ternary pass shows constant
// at every site, or none of whose sites can reach an observation point
// combinationally. No test on the run's clone detects such a class, so it
// needs no search: one pass of the kernel and one cone walk settle them all.
//
// Workers pull classes rather than being dispatched to: every worker draws
// the next class of the sorted list from one sched.Queue cursor, and a
// per-worker ack keeps a worker from taking its next class until the
// coordinator has graded its previous pattern — so fault dropping sees every
// pattern before more search work starts. A single worker therefore takes
// the classes strictly in sorted order, and a one-worker run is fully
// deterministic. Classes the replay or the screen stage resolves never
// enter the queue, and classes a search's test drops are pruned from it in
// flight.
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
	// reps is the run's own class list: it is filtered and sorted in place
	// below, so a caller's list is copied.
	var reps []fault.FID
	if opts.Classes == nil {
		for id := 0; id < u.NumFaults(); id++ {
			if collapse.Rep(fault.FID(id)) == fault.FID(id) {
				reps = append(reps, fault.FID(id))
			}
		}
	} else {
		for _, fid := range opts.Classes {
			if int(fid) < 0 || int(fid) >= u.NumFaults() {
				return nil, fmt.Errorf("atpg: class %d out of universe range", fid)
			}
			if collapse.Rep(fid) != fid {
				return nil, fmt.Errorf("atpg: class %d is not a collapse representative", fid)
			}
		}
		reps = slices.Clone(opts.Classes)
	}
	if rp := opts.Replay; rp != nil {
		if len(rp.States) != len(rp.Patterns) {
			return nil, fmt.Errorf("atpg: replay holds %d pattern rows and %d state rows",
				len(rp.Patterns), len(rp.States))
		}
		npis, nffs := len(n.PrimaryInputs()), len(n.FlipFlops())
		for i, p := range rp.Patterns {
			if len(p) != npis || len(rp.States[i]) != nffs {
				return nil, fmt.Errorf("atpg: replay row %d sets %d inputs and %d flip-flops, the netlist has %d and %d",
					i, len(p), len(rp.States[i]), npis, nffs)
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

	ann := opts.Annotations
	if ann == nil {
		var err error
		if ann, err = n.Annotate(); err != nil {
			return nil, err
		}
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
		mConstant     = reg.Counter("atpg.screen.constant")
		mUnobservable = reg.Counter("atpg.screen.unobservable")
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

	// src is the cursor workers drain, built once the replay and the screen
	// below have resolved what they can. It shares the run's registry, so
	// the queue-depth gauge aggregates across every run of a campaign.
	var src *sched.Queue
	unlive := func(fid fault.FID) {
		// A resolved class needs no search: prune it from the queue too,
		// wherever it sits (no-op when already handed to a worker).
		if src != nil {
			src.Remove(fid)
		}
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

	// drop grades rows against the live classes and resolves every hit as a
	// simulation-dropped Detected class, Aborted ones included: a later
	// pattern may well cover a fault the search gave up on. dropped holds the
	// hits afterwards.
	dropped := fault.NewSet(u)
	drop := func(patterns, states []sim.Pattern) {
		mDropGraded.Add(int64(len(live)))
		gradeStart := time.Now()
		dropped.Clear()
		grader.GradeInto(dropped, patterns, states, live)
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
	}

	// Replay: the given test set is graded word by word before any worker
	// starts, so the classes it detects never reach a search (see Replay).
	if rp := opts.Replay; rp != nil {
		replayStart := time.Now()
		for lo := 0; lo < len(rp.Patterns) && len(live) > 0; lo += logic.WordBits {
			hi := min(lo+logic.WordBits, len(rp.Patterns))
			st.ReplayPatterns += hi - lo
			drop(rp.Patterns[lo:hi], rp.States[lo:hi])
			if dropped.Count() == 0 {
				continue
			}
			st.Replayed += dropped.Count()
			out.Patterns = append(out.Patterns, rp.Patterns[lo:hi]...)
			out.States = append(out.States, rp.States[lo:hi]...)
			st.Patterns += hi - lo
			mPatterns.Add(int64(hi - lo))
			if rp.Hit != nil {
				rp.Hit(lo, hi, dropped)
			}
		}
		st.ReplayElapsed = time.Since(replayStart)
	}

	// The replay's hits do not depend on the list's order (see Dispatch
	// order above), so only the classes it left are sorted.
	reps = slices.DeleteFunc(reps, func(fid fault.FID) bool { return livePos[fid] < 0 })
	hardestFirst(u, ann, reps)

	// Screen stage: the grader's static screen retires every class a ternary
	// constant or the lack of any combinational path to an observation point
	// proves Untestable, before any worker or search-generated pattern sees
	// them. The verdict is the one a search would prove, so screening is
	// invisible to everything downstream except the work saved; spreading
	// over the collapse at the end applies to screened classes exactly as to
	// searched ones. A replay cannot detect a screened class, so the replay
	// goes first and the screen only walks the classes it left, in sorted
	// order, keeping the ones it cannot retire in that order.
	reps = grader.Screen(reps, func(fid fault.FID, rule sim.ScreenRule) {
		status.Set(fid, fault.Untestable)
		st.Untestable++
		st.Screened++
		mUntestable.Inc()
		if rule == sim.ScreenConstant {
			mConstant.Inc()
		} else {
			mUnobservable.Inc()
		}
		unlive(fid)
		commit(fid, Untestable)
	})

	// The queue holds the classes left live, in sorted order. Closing it on
	// every return sheds what a cancelled run leaves queued from the depth
	// gauge.
	src = sched.NewQueue(reps, opts.Metrics)
	defer src.Close()

	// Workers pull classes from src, gated per search by the (possibly nil,
	// then ungated) campaign worker pool. The per-worker ack keeps each
	// worker to one unprocessed result: it takes its next class only after
	// the coordinator graded its previous pattern, so dropping prunes the
	// queue before more search work starts. Spawning is skipped entirely
	// when the replay and the screen resolved every class.
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
			}()
			for !cancelFlag.Load() {
				waitStart := time.Now()
				if !opts.Pool.Acquire(ctx) {
					return
				}
				fid, ok := src.Next()
				if !ok {
					opts.Pool.Release()
					return
				}
				mQueueWait.Add(time.Since(waitStart).Nanoseconds())
				res := eng.Generate(u.FaultOf(fid))
				if res.Verdict == Detected {
					completeTest(fid, res.Pattern, res.State)
				}
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
	// generated pattern, drops hits, and acks the producing worker.
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
				drop([]sim.Pattern{w.res.Pattern}, []sim.Pattern{w.res.State})
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

// hardestFirst sorts classes in place by descending SCOAP detection
// difficulty of the class representative: detecting stuck-at-v on net n
// needs n controlled to ¬v and the value propagated to an observation point,
// so the difficulty is CC(¬v)(n) + CO(n) (saturating). Ties keep
// ascending-FID order, so the order is deterministic for a given annotation
// pass. Reordering is sound because Detected and Untestable are
// order-invariant complete proofs; only Aborted verdicts are
// search-order-sensitive.
//
// Each class's cost is computed once, into a key that sorts ascending in
// exactly that order: CostInf − cost in the high 32 bits (a cost lies in
// [0, CostInf]) and the FID in the low 32.
func hardestFirst(u *fault.Universe, ann *netlist.Annotations, classes []fault.FID) {
	keys := make([]uint64, len(classes))
	for i, fid := range classes {
		f := u.FaultOf(fid)
		net := u.NetOf(f.Site)
		cost := netlist.SatAdd(ann.CCOf(net, f.SA == logic.Zero), ann.CO[net])
		keys[i] = uint64(netlist.CostInf-cost)<<32 | uint64(fid)
	}
	slices.Sort(keys)
	for i, k := range keys {
		classes[i] = fault.FID(uint32(k))
	}
}

// completeTest fills, in place, every X entry of a Detected search's pattern
// and state rows with a pseudo-random 0 or 1, and keeps every known entry, so
// the completed test is one extension of the search's partial assignment. The
// bits come from a PCG stream seeded only by the class representative fid: a
// class gets the same completed test in every run and at every worker count.
// It shares no state and allocates nothing.
func completeTest(fid fault.FID, pattern, state sim.Pattern) {
	var rng rand.PCG
	rng.Seed(uint64(fid), 0)
	var word uint64
	bits := 0
	for _, row := range [...]sim.Pattern{pattern, state} {
		for i, v := range row {
			if v != logic.X {
				continue
			}
			if bits == 0 {
				word, bits = rng.Uint64(), 64
			}
			row[i] = logic.FromBit(word)
			word >>= 1
			bits--
		}
	}
}

// LiftTests returns fresh, fully specified copies of a test set, sized for a
// netlist with npis primary inputs and nffs flip-flops. Row i keeps the
// leading entries of patterns[i] and states[i] that fit the new widths, and
// every entry it adds, or that was X, becomes a pseudo-random 0 or 1 drawn
// as completeTest draws a class's fill, from the stream seeded by i. Entries
// keep their positions: a constrained clone keeps every original input and
// flip-flop at its index and only appends, and an unrolled clone has no
// flip-flops left. The input rows are only read, so several providers may
// lift one shared test set at once. Each returned row has no spare capacity,
// so appending to it never writes into another row.
func LiftTests(patterns, states []sim.Pattern, npis, nffs int) ([]sim.Pattern, []sim.Pattern) {
	w := npis + nffs
	buf := make([]logic.V, len(patterns)*w)
	for i := range buf {
		buf[i] = logic.X
	}
	lp := make([]sim.Pattern, len(patterns))
	ls := make([]sim.Pattern, len(patterns))
	for i := range patterns {
		row := buf[i*w : (i+1)*w : (i+1)*w]
		lp[i], ls[i] = sim.Pattern(row[:npis:npis]), sim.Pattern(row[npis:])
		copy(lp[i], patterns[i])
		copy(ls[i], states[i])
		completeTest(fault.FID(i), lp[i], ls[i])
	}
	return lp, ls
}
