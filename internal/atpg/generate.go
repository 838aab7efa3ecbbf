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

// workItem is one class the coordinator hands to a worker: the class
// representative and the number of search tests emitted when the
// coordinator checked it. The worker sends it back with its search's result.
type workItem struct {
	fid   fault.FID
	tests int
	res   Result
}

// GenerateAll runs deterministic ATPG over the collapsed fault list of the
// universe (or the Options.Classes subset) with fault dropping: fault
// classes fan out to a bounded worker pool (one Engine per worker), and no
// class reaches a search while a test already emitted detects it, so
// incidentally covered faults are dropped instead of searched. The classic
// pattern-count/CPU-time tradeoff: dropping shrinks both the test set and
// the number of deterministic searches, while the workers keep the
// per-fault searches parallel.
//
// Dispatch order: GenerateAll sorts the classes the replay leaves
// hardest-first (hardestFirst: descending SCOAP detection difficulty, ties in
// ascending FID order), and the screen stage and the dispatch walk that one
// order. Hard classes are searched first, and each of their completed tests
// drops easy classes that would otherwise each cost a search. The replay
// needs no order: the grader finds its hits by walking nets, not the list,
// and resolves them in FID order, so the sort waits for it and orders only
// the classes it left. The order of Options.Classes does not matter.
//
// Before a worker hands a Detected result to the coordinator, it completes
// the test (completeTest): every X the search left in Result.Pattern and
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
// Fault dropping then happens at dispatch. The coordinator goroutine owns
// the sorted list and the drop grader's test store, which holds the run's
// search tests packed 64 to a word, each word's good machine settled once
// (sim.Grader.AddTest). A worker that holds its sched.Pool slot asks the
// coordinator for a class. The coordinator walks the list from its cursor
// and checks each class once, at the head, against every search test
// emitted so far (sim.Grader.Detects: one activation read and at most one
// cone evaluation per word). A hit resolves the class as a simulation drop;
// the first class no test detects goes to the worker, with the number of
// tests emitted at the check. A worker asks again only after it has sent its
// last result, so a single worker takes the classes strictly in sorted
// order, each checked against every test before it, and a one-worker run is
// fully deterministic. Its searches, tests and verdicts are those of
// grading each new test at once against every class still live: a class
// meets the same tests, only when it reaches the head, which is also when
// its drop is announced. With several workers, a result whose class a test
// emitted after its dispatch detects is discarded, and the class is the
// simulation drop that test makes it. An Aborted class stays open to every
// later test: when the run ends, it is checked against the tests emitted
// after its search, and a hit upgrades it to a simulation drop, announced
// as Detected.
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
		listed := fault.NewSet(u)
		for _, fid := range opts.Classes {
			if int(fid) < 0 || int(fid) >= u.NumFaults() {
				return nil, fmt.Errorf("atpg: class %d out of universe range", fid)
			}
			if collapse.Rep(fid) != fid {
				return nil, fmt.Errorf("atpg: class %d is not a collapse representative", fid)
			}
			if listed.Has(fid) {
				return nil, fmt.Errorf("atpg: class %d listed twice", fid)
			}
			listed.Add(fid)
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
		mDepth        = reg.Counter("sched.queue_depth")
		mQueueWait    = reg.Counter("sched.queue_wait_ns")
		hBusy         = reg.Histogram("sched.worker_busy_ns")
	)
	mClasses.Add(int64(len(reps)))

	commit := func(fid fault.FID, v Verdict) {
		if opts.Progress != nil {
			opts.Progress(fid, v)
		}
	}

	// simDrop resolves a class a test detects as a simulation-dropped
	// Detected class.
	simDrop := func(fid fault.FID) {
		status.Set(fid, fault.Detected)
		st.Detected++
		st.SimDropped++
		mDetected.Inc()
		mSimDropped.Inc()
		mDropHits.Inc()
		commit(fid, Detected)
	}

	// Replay: the given test set is graded word by word against the classes
	// it has not yet detected, before any worker starts, so the classes it
	// detects never reach a search (see Replay).
	if rp := opts.Replay; rp != nil {
		replayStart := time.Now()
		dropped := fault.NewSet(u)
		for lo := 0; lo < len(rp.Patterns) && len(reps) > 0; lo += logic.WordBits {
			hi := min(lo+logic.WordBits, len(rp.Patterns))
			st.ReplayPatterns += hi - lo
			mDropGraded.Add(int64(len(reps)))
			gradeStart := time.Now()
			dropped.Clear()
			grader.GradeInto(dropped, rp.Patterns[lo:hi], rp.States[lo:hi], reps)
			mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
			if dropped.Count() == 0 {
				continue
			}
			dropped.ForEach(simDrop)
			reps = slices.DeleteFunc(reps, dropped.Has)
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
		commit(fid, Untestable)
	})

	// The coordinator hands the classes left out in sorted order; next is
	// its cursor into reps. The sched.queue_depth gauge counts the classes
	// from the cursor on, and every return sheds what a cancelled run left.
	next := 0
	mDepth.Add(int64(len(reps)))
	defer func() { mDepth.Add(-int64(len(reps) - next)) }()

	// The grader's test store holds this run's search tests, in emission
	// order. detects checks a class against the ones from index k on,
	// counted as drop grading. Its callers time whole stretches of checks
	// for atpg.drop.grade_ns: reading the clock around every check would
	// cost more than many of the checks it times.
	grader.ResetTests()
	detects := func(fid fault.FID, k int) bool {
		if k >= grader.Tests() {
			return false
		}
		mDropGraded.Inc()
		return grader.Detects(fid, k)
	}

	// Workers ask the coordinator for a class once they hold a slot of the
	// (possibly nil, then ungated) campaign worker pool, take it from work,
	// search it, and send the result back. A worker asks for its next class
	// only after it has sent its last result, so a lone worker's next class
	// is checked against the test its last search emitted. Spawning is
	// skipped entirely when the replay and the screen resolved every class.
	var cancelFlag atomic.Bool
	numWorkers := min(workers, len(reps))
	asks := make(chan struct{})
	work := make(chan workItem)
	results := make(chan workItem)
	var wg sync.WaitGroup
	for range numWorkers {
		eng := NewWithAnnotations(n, ann, opts)
		eng.cancel = &cancelFlag
		wg.Add(1)
		go func() {
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
				asks <- struct{}{}
				w, ok := <-work
				if !ok {
					opts.Pool.Release()
					return
				}
				mQueueWait.Add(time.Since(waitStart).Nanoseconds())
				w.res = eng.Generate(u.FaultOf(w.fid))
				if w.res.Verdict == Detected {
					completeTest(w.fid, w.res.Pattern, w.res.State)
				}
				opts.Pool.Release()
				busy += w.res.Elapsed.Nanoseconds()
				results <- w
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// handOut answers one ask. It walks the list from the cursor, resolves
	// every class a search test detects as a simulation drop, and hands the
	// first class left to the asking worker. With no class left, or once the
	// run is cancelled, it closes work, which retires every worker that asks.
	workClosed := false
	handOut := func() {
		if workClosed {
			return
		}
		if ctx.Err() == nil {
			gradeStart := time.Now()
			for next < len(reps) {
				fid := reps[next]
				next++
				mDepth.Add(-1)
				if !detects(fid, 0) {
					mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
					work <- workItem{fid: fid, tests: grader.Tests()}
					return
				}
				simDrop(fid)
			}
			mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
		}
		close(work)
		workClosed = true
	}

	// The coordinator owns the status map and the test store: it answers
	// asks, and it commits each search's verdict, storing a Detected
	// search's test. Aborted classes wait for the end of the run, when every
	// test emitted after them is known.
	var aborted []workItem
	done := ctx.Done()
	for open := true; open; {
		var w workItem
		select {
		case <-done:
			// Interrupt in-flight searches, stop handing out classes, and
			// keep draining so every worker can exit.
			cancelFlag.Store(true)
			done = nil
			continue
		case <-asks:
			handOut()
			continue
		case w, open = <-results:
		}
		if !open || ctx.Err() != nil {
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
		// A test another worker emitted while this search ran may detect
		// the class. The class is then the simulation drop it would have
		// been had that test come first, and the search's result is
		// discarded: the verdicts cannot disagree, only overlap. Otherwise a
		// Detected search's test joins the store.
		gradeStart := time.Now()
		dropped := detects(w.fid, w.tests)
		if !dropped && w.res.Verdict == Detected {
			grader.AddTest(w.res.Pattern, w.res.State)
		}
		mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
		if dropped {
			simDrop(w.fid)
			continue
		}
		switch w.res.Verdict {
		case Detected:
			status.Set(w.fid, fault.Detected)
			st.Detected++
			mDetected.Inc()
			commit(w.fid, Detected)
			out.Patterns = append(out.Patterns, w.res.Pattern)
			out.States = append(out.States, w.res.State)
			st.Patterns++
			mPatterns.Inc()
		case Untestable:
			status.Set(w.fid, fault.Untestable)
			st.Untestable++
			mUntestable.Inc()
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
			aborted = append(aborted, workItem{fid: w.fid, tests: grader.Tests()})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// A test emitted after an Aborted class's search covers it as well as a
	// test emitted before: such a class is upgraded to a simulation drop
	// (and re-announced as Detected).
	gradeStart := time.Now()
	for _, a := range aborted {
		if detects(a.fid, a.tests) {
			st.Aborted--
			mAborted.Add(-1)
			simDrop(a.fid)
		}
	}
	mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())

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
