package atpg

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
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

// abortedClass is an Aborted class and the number of search tests emitted
// when its search ended; the end of the run checks it against the tests
// emitted after.
type abortedClass struct {
	fid   fault.FID
	tests int
}

// GenerateAll runs deterministic ATPG over the collapsed fault list of the
// universe (or the Options.Classes subset) with fault dropping: one Engine
// searches the classes one at a time on the caller's goroutine, and no class
// reaches a search while a test already emitted detects it, so incidentally
// covered faults are dropped instead of searched. The classic
// pattern-count/CPU-time tradeoff: dropping shrinks both the test set and
// the number of deterministic searches. Parallelism lives one level up: a
// campaign runs its providers' GenerateAll runs concurrently, and
// Options.Pool caps the searches in flight across them.
//
// Dispatch order: GenerateAll sorts the classes the replay leaves
// hardest-first (hardestFirst: descending SCOAP detection difficulty, ties in
// ascending FID order), and the screen stage and the dispatch loop walk that
// one order. Hard classes are searched first, and each of their completed
// tests drops easy classes that would otherwise each cost a search. The
// replay needs no order: the grader finds its hits by walking nets, not the
// list, and resolves them in FID order, so the sort waits for it and orders
// only the classes it left. The order of Options.Classes does not matter.
//
// Before a Detected search's test joins the run, GenerateAll completes it
// (completeTest): every X the search left in Result.Pattern and Result.State
// becomes a pseudo-random 0 or 1, drawn from a stream seeded only by the
// class representative's FID. This is sound: ternary simulation is monotone,
// so every completion keeps every definite value of the partial assignment,
// the observed fault effect included, and the completed test still detects
// its target. The filled inputs are the controllables the engine searches
// over, and scenario constraints are structural in the netlist, so a
// completed test is as legal as any assignment the search could pick. What
// it buys: a partial test leaves most nets X, and the grader can only drop
// faults whose effect shows on definite values; a completed test makes every
// net definite, so one test drops many more classes, and fewer classes reach
// a search. The seed makes a class's completed test the same in every run.
//
// With Options.Replay set, the drop grader first grades that test set
// against the class list, before the screen stage and before any search:
// its hits resolve as simulation drops, and the words that dropped a class
// lead the emitted test set (see Replay).
//
// The screen stage then settles untestability before any search: the drop
// grader's static screen (sim.Grader.Screen) retires, over the sorted
// survivors, every class whose joint injection a ternary pass shows constant
// at every site, or none of whose sites can reach an observation point
// combinationally. No test on the run's clone detects such a class, so it
// needs no search: one pass of the kernel and one cone walk settle them all.
//
// Fault dropping then happens at dispatch. The drop grader's test store
// holds the run's search tests packed 64 to a word, each word's good machine
// settled once (sim.Grader.AddTest). The dispatch loop walks the sorted list
// and checks each class once, at the head, against every search test emitted
// so far (sim.Grader.Detects: one activation read and at most one cone
// evaluation per word). A hit resolves the class as a simulation drop. The
// first class no test detects is searched: the loop acquires an Options.Pool
// slot, runs the search, releases the slot, and commits the verdict, storing
// a Detected search's completed test before it checks the next class. So the
// classes are taken strictly in sorted order, each checked against every
// test before it, and a run is fully deterministic, whatever the pool's
// size. Its searches, tests and verdicts are those of grading each new test
// at once against every class still live: a class meets the same tests,
// only when it reaches the head, which is also when its drop is announced.
// An Aborted class stays open to every later test: when the run ends, it is
// checked against the tests emitted after its search, and a hit upgrades it
// to a simulation drop, announced as Detected.
//
// Cancelling ctx stops the run promptly — the search in flight polls a flag
// that context.AfterFunc sets, once per decision step — and returns
// ctx.Err(). GenerateAll starts no goroutine of its own.
func GenerateAll(ctx context.Context, n *netlist.Netlist, u *fault.Universe, opts Options) (*Outcome, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
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

	// The dispatch loop takes the classes left in sorted order; next is its
	// cursor into reps. The sched.queue_depth gauge counts the classes from
	// the cursor on, and every return sheds what a cancelled run left.
	next := 0
	mDepth.Add(int64(len(reps)))
	defer func() { mDepth.Add(-int64(len(reps) - next)) }()

	// The grader's test store holds this run's search tests, in emission
	// order. detects checks a class against the ones from index k on,
	// counted as drop grading. The loop times whole stretches of checks for
	// atpg.drop.grade_ns: reading the clock around every check would cost
	// more than many of the checks it times.
	grader.ResetTests()
	detects := func(fid fault.FID, k int) bool {
		if k >= grader.Tests() {
			return false
		}
		mDropGraded.Inc()
		return grader.Detects(fid, k)
	}

	// The engine is built for the first class that needs a search, so a run
	// whose replay, screen and drops settle every class builds none.
	// Cancelling ctx sets the flag it polls.
	var (
		cancelled atomic.Bool
		eng       *Engine
		aborted   []abortedClass
		busy      int64
	)
	stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	defer stop()
	gradeStart := time.Now()
	for next < len(reps) && !cancelled.Load() {
		fid := reps[next]
		next++
		mDepth.Add(-1)
		if detects(fid, 0) {
			simDrop(fid)
			continue
		}
		mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
		if eng == nil {
			eng = NewWithAnnotations(n, ann, opts)
			eng.cancel = &cancelled
		}
		// The pool slot is held for the search alone.
		waitStart := time.Now()
		if !opts.Pool.Acquire(ctx) {
			return nil, ctx.Err()
		}
		mQueueWait.Add(time.Since(waitStart).Nanoseconds())
		res := eng.Generate(u.FaultOf(fid))
		opts.Pool.Release()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		busy += res.Elapsed.Nanoseconds()
		st.Backtracks += res.Backtracks
		st.Decisions += res.Decisions
		st.Implications += res.Implications
		st.GateEvals += res.GateEvals
		mBacktracks.Add(int64(res.Backtracks))
		mDecisions.Add(int64(res.Decisions))
		mImplications.Add(int64(res.Implications))
		mGateEvals.Add(int64(res.GateEvals))
		hSearch.Observe(res.Elapsed.Nanoseconds())
		switch res.Verdict {
		case Detected:
			completeTest(fid, res.Pattern, res.State)
			status.Set(fid, fault.Detected)
			st.Detected++
			mDetected.Inc()
			commit(fid, Detected)
			out.Patterns = append(out.Patterns, res.Pattern)
			out.States = append(out.States, res.State)
			st.Patterns++
			mPatterns.Inc()
		case Untestable:
			status.Set(fid, fault.Untestable)
			st.Untestable++
			mUntestable.Inc()
			commit(fid, Untestable)
		case Aborted:
			status.Set(fid, fault.Aborted)
			st.Aborted++
			mAborted.Inc()
			// A search that cancellation interrupted ended the run above, so
			// every Aborted verdict committed here hit the backtrack limit.
			mAbortLimit.Inc()
			commit(fid, Aborted)
			aborted = append(aborted, abortedClass{fid: fid, tests: grader.Tests()})
		}
		// Storing the test counts as drop grading, with the walk it feeds.
		gradeStart = time.Now()
		if res.Verdict == Detected {
			grader.AddTest(res.Pattern, res.State)
		}
	}
	mDropGradeNs.Add(time.Since(gradeStart).Nanoseconds())
	if busy > 0 {
		hBusy.Observe(busy)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// A test emitted after an Aborted class's search covers it as well as a
	// test emitted before: such a class is upgraded to a simulation drop
	// (and re-announced as Detected).
	gradeStart = time.Now()
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
