package atpg

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// waitGoroutines asserts a cancelled run left no goroutine behind.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	if err := testutil.WaitGoroutines(base); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAllPreCancelled(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	if _, err := GenerateAll(ctx, n, u, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestGenerateAllCancelMidRun cancels in the middle of a run: it must return
// ctx.Err() promptly, leave no goroutine behind (the one context.AfterFunc
// starts to set the search's cancel flag included), and shed the classes
// still queued from the sched.queue_depth gauge, which a campaign server's
// registry keeps across runs.
func TestGenerateAllCancelMidRun(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.New()
	fired := false
	opts := Options{
		Metrics: reg,
		Progress: func(fault.FID, Verdict) {
			// Cancel on the first committed verdict, with plenty of classes
			// still undispatched.
			if !fired {
				fired = true
				cancel()
			}
		},
	}
	out, err := GenerateAll(ctx, n, u, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (out=%v), want context.Canceled", err, out != nil)
	}
	waitGoroutines(t, base)
	if depth := reg.Snapshot().Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("sched.queue_depth = %d after the cancelled run, want 0", depth)
	}
}

func TestGenerateAllDeadline(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := GenerateAll(ctx, n, u, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, base)
}

// TestGenerateCancelDoesNotMaskDetection pins the loop-boundary ordering fix:
// a detection completed by the implication pass must be returned even when
// the cancel flag is already set — the pattern is earned, and discarding it
// as Aborted(cancel) would waste paid-for work and destabilize re-runs.
func TestGenerateCancelDoesNotMaskDetection(t *testing.T) {
	n := netlist.New("cancel_edge")
	t0 := n.Tie0("t0")
	b := n.Buf("b", t0)
	n.OutputPort("o", b)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	gid, ok := n.GateByName("b")
	if !ok {
		t.Fatal("no buf gate")
	}
	sa0, sa1 := u.PinFaults(gid, fault.OutputPin)
	fid := sa0
	if u.FaultOf(sa1).SA == logic.One {
		fid = sa1
	}
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var flag atomic.Bool
	flag.Store(true)
	e.cancel = &flag
	// The tie drives the site to 0 on the very first implication, so s-a-1 is
	// activated and observed with zero decisions: the engine reaches its
	// detected/cancel check exactly once, with both conditions true.
	if r := e.Generate(u.FaultOf(fid)); r.Verdict != Detected {
		t.Fatalf("verdict %v with pre-set cancel, want Detected (implication already proved it)", r.Verdict)
	}
}

// TestGenerateAllShardsMatchFull deals the class representatives
// round-robin into k subsets, runs each through Options.Classes and checks
// the lattice-merged union reproduces the full run's statuses exactly (the
// circuit resolves without aborts, so verdicts are complete proofs and
// independent of how the class list is split).
func TestGenerateAllShardsMatchFull(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	full, err := GenerateAll(context.Background(), n, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Aborted != 0 {
		t.Fatalf("benchmark circuit aborted %d classes", full.Stats.Aborted)
	}
	c := fault.NewCollapse(u)
	for _, k := range []int{2, 5} {
		shards := make([][]fault.FID, k)
		for id, i := 0, 0; id < u.NumFaults(); id++ {
			if fid := fault.FID(id); c.Rep(fid) == fid {
				shards[i%k] = append(shards[i%k], fid)
				i++
			}
		}
		acc := fault.NewAccumulator(u)
		classes := 0
		for i, sh := range shards {
			out, err := GenerateAll(context.Background(), n, u, Options{Classes: sh})
			if err != nil {
				t.Fatal(err)
			}
			classes += out.Stats.Classes
			d := fault.Delta{Source: "shard" + string(rune('0'+i))}
			for id := 0; id < u.NumFaults(); id++ {
				if st := out.Status.Get(fault.FID(id)); st != fault.Undetected {
					d.FIDs = append(d.FIDs, fault.FID(id))
					d.Statuses = append(d.Statuses, st)
				}
			}
			if err := acc.Apply(d); err != nil {
				t.Fatalf("k=%d shard %d: %v", k, i, err)
			}
		}
		if classes != full.Stats.Classes {
			t.Fatalf("k=%d: shards targeted %d classes, full run %d", k, classes, full.Stats.Classes)
		}
		for id := 0; id < u.NumFaults(); id++ {
			if got, want := acc.Get(fault.FID(id)), full.Status.Get(fault.FID(id)); got != want {
				t.Fatalf("k=%d fault %d: sharded %v, full %v", k, id, got, want)
			}
		}
	}
}

// TestGenerateAllOrdersItsClasses pins that GenerateAll owns the dispatch
// order: a run given the same classes ascending, reversed or as
// nil searches them in one order (hardest-first), so the three Outcomes are
// equal — statuses, the emitted test set, and every stat but the times.
func TestGenerateAllOrdersItsClasses(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	c := fault.NewCollapse(u)
	var ascending []fault.FID
	for id := 0; id < u.NumFaults(); id++ {
		if fid := fault.FID(id); c.Rep(fid) == fid {
			ascending = append(ascending, fid)
		}
	}
	reversed := slices.Clone(ascending)
	slices.Reverse(reversed)
	run := func(classes []fault.FID) *Outcome {
		t.Helper()
		out, err := GenerateAll(context.Background(), n, u, Options{Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		out.Stats.Elapsed, out.Stats.ReplayElapsed = 0, 0
		return out
	}
	ref := run(nil)
	if ref.Stats.Patterns < 2 {
		t.Fatalf("%d patterns: too few for the order to show", ref.Stats.Patterns)
	}
	for name, classes := range map[string][]fault.FID{"ascending": ascending, "reversed": reversed} {
		out := run(classes)
		if out.Stats != ref.Stats {
			t.Errorf("%s: stats differ from the nil-classes run:\n got %#v\nwant %#v", name, out.Stats, ref.Stats)
		}
		for id := 0; id < u.NumFaults(); id++ {
			if got, want := out.Status.Get(fault.FID(id)), ref.Status.Get(fault.FID(id)); got != want {
				t.Fatalf("%s: fault %d %v, nil classes %v", name, id, got, want)
			}
		}
		if !slices.EqualFunc(out.Patterns, ref.Patterns, slices.Equal) ||
			!slices.EqualFunc(out.States, ref.States, slices.Equal) {
			t.Errorf("%s: emitted test set differs from the nil-classes run", name)
		}
	}
	if !slices.IsSorted(ascending) {
		t.Fatal("GenerateAll reordered the caller's class list")
	}
}

func TestGenerateAllClassesValidation(t *testing.T) {
	n := netlist.New("cls")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("g", a, b))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	c := fault.NewCollapse(u)
	var nonRep fault.FID = fault.InvalidFID
	for id := 0; id < u.NumFaults(); id++ {
		if c.Rep(fault.FID(id)) != fault.FID(id) {
			nonRep = fault.FID(id)
			break
		}
	}
	if nonRep == fault.InvalidFID {
		t.Fatal("collapse produced no merged class on an AND gate")
	}
	// Every rejection must fire before the worker pool spawns: validation
	// errors may not leak goroutines.
	base := runtime.NumGoroutine()
	if _, err := GenerateAll(context.Background(), n, u, Options{Classes: []fault.FID{nonRep}}); err == nil {
		t.Error("non-representative class: want error")
	}
	if _, err := GenerateAll(context.Background(), n, u, Options{Classes: []fault.FID{fault.FID(u.NumFaults())}}); err == nil {
		t.Error("out-of-range class: want error")
	}
	rep := c.Rep(nonRep)
	if _, err := GenerateAll(context.Background(), n, u, Options{Classes: []fault.FID{rep, rep}}); err == nil {
		t.Error("duplicate class: want error")
	}
	waitGoroutines(t, base)
}

// TestGenerateAllProgressMatchesOutcome replays the streamed verdicts into
// an accumulator and checks the lattice agrees with the final class-rep
// statuses — the invariant providers rely on to stream evidence early.
func TestGenerateAllProgressMatchesOutcome(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	acc := fault.NewAccumulator(u)
	seq := 0
	var perr error
	opts := Options{
		Progress: func(fid fault.FID, v Verdict) {
			st := fault.Detected
			switch v {
			case Untestable:
				st = fault.Untestable
			case Aborted:
				st = fault.Aborted
			}
			if err := acc.Apply(fault.Delta{
				Source: "stream", Seq: seq,
				FIDs: []fault.FID{fid}, Statuses: []fault.Status{st},
			}); err != nil && perr == nil {
				perr = err
			}
			seq++
		},
	}
	out, err := GenerateAll(context.Background(), n, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	c := fault.NewCollapse(u)
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if c.Rep(fid) != fid {
			continue
		}
		if got, want := acc.Get(fid), out.Status.Get(fid); got != want {
			t.Fatalf("rep %d: streamed %v, outcome %v", id, got, want)
		}
	}
}

// TestGenerateAllReplay pins Options.Replay. Replaying a run's own test set
// classifies every class as that run did, resolves every Detected class as
// a simulation drop before any search, emits only rows of the replayed set,
// and that emitted set still detects every Detected class. Mis-sized rows
// are rejected before any search.
func TestGenerateAllReplay(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	first, err := GenerateAll(context.Background(), n, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	second, err := GenerateAll(context.Background(), n, u, Options{Replay: &Replay{
		Patterns: first.Patterns,
		States:   first.States,
		Hit:      func(_, _ int, detected *fault.Set) { hits += detected.Count() },
	}})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < u.NumFaults(); id++ {
		if got, want := second.Status.Get(fault.FID(id)), first.Status.Get(fault.FID(id)); got != want {
			t.Fatalf("fault %d: %v with the replay, %v without", id, got, want)
		}
	}
	st := second.Stats
	if st.Detected == 0 || st.Replayed != st.Detected || st.SimDropped != st.Detected || hits != st.Replayed {
		t.Fatalf("replay resolved %d classes (hook saw %d), %d sim-dropped, of %d Detected",
			st.Replayed, hits, st.SimDropped, st.Detected)
	}
	// The replayed set fits one word, which detects every Detected class, so
	// it is graded once and emitted whole, and no search adds a test.
	if len(first.Patterns) > logic.WordBits {
		t.Fatalf("%d tests span more than one word", len(first.Patterns))
	}
	if st.ReplayPatterns != len(first.Patterns) || len(second.Patterns) != len(first.Patterns) {
		t.Fatalf("graded %d of %d replayed rows and emitted %d", st.ReplayPatterns, len(first.Patterns), len(second.Patterns))
	}
	for i, p := range second.Patterns {
		if !slices.Equal(p, first.Patterns[i]) || !slices.Equal(second.States[i], first.States[i]) {
			t.Fatalf("emitted row %d is not replayed row %d", i, i)
		}
	}
	grader, err := sim.NewGrader(n, u)
	if err != nil {
		t.Fatal(err)
	}
	det := second.Status.FaultsWith(fault.Detected)
	if got := grader.Grade(second.Patterns, second.States, det).Count(); got != len(det) {
		t.Fatalf("emitted test set detects %d of %d Detected faults", got, len(det))
	}

	base := runtime.NumGoroutine()
	for name, rp := range map[string]*Replay{
		"short row":          {Patterns: []sim.Pattern{first.Patterns[0][:1]}, States: first.States[:1]},
		"missing state rows": {Patterns: first.Patterns},
	} {
		if _, err := GenerateAll(context.Background(), n, u, Options{Replay: rp}); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	waitGoroutines(t, base)
}
