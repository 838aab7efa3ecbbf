package flow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/testutil"
)

// TestSchedulerInvariance is the scheduler's correctness property: the
// worker budget decides only how many providers search at once, never what a
// campaign computes. On seeded random netlists, with a backtrack limit low
// enough that classes abort (Aborted is the one verdict that depends on
// search order), campaigns at budgets 1, 4 and 16, with providers run
// serially and concurrently, must agree on the class digest and the
// report, on the baseline's and every scenario's statuses, emitted tests and
// counts, on every sweep table, and on the (Seq, Faults) stream of every
// delta source — across one-shot scenarios and the swept per-depth class
// lists.
func TestSchedulerInvariance(t *testing.T) {
	scenarios := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2), // sweeps under MaxFrames: one class list per depth
	}
	aborted := 0
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})
		var ref *budgetRun
		for _, serial := range []bool{true, false} {
			for _, workers := range []int{1, 4, 16} {
				label := fmt.Sprintf("seed %d serial=%v workers=%d", seed, serial, workers)
				run := runAtBudget(t, label, nl, scenarios, Options{
					Workers:   workers,
					Serial:    serial,
					MaxFrames: 4,
					ATPG:      atpg.Options{BacktrackLimit: 1},
				})
				if ref == nil {
					ref = run
					aborted += run.aborted
					continue
				}
				ref.requireEqual(t, label, run)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no class aborted: the limit must be low enough to exercise Aborted verdicts")
	}
	t.Logf("%d Aborted classes, summed over the reference runs' outcomes and sweep depths", aborted)
}

// budgetRun is what TestSchedulerInvariance compares across budgets.
type budgetRun struct {
	report *Report
	digest string
	// outcomes holds the baseline's outcome, then each scenario's, with
	// their Stats' times zeroed; sweeps holds each scenario's sweep table
	// (nil for a one-shot scenario), times zeroed too.
	outcomes []*atpg.Outcome
	sweeps   []*SweepResult
	// streams maps each delta source to its merged deltas' Seq and Faults,
	// in merge order, flattened in pairs.
	streams map[string][]int
	aborted int
}

func runAtBudget(t *testing.T, label string, nl *netlist.Netlist, scenarios []Scenario, opts Options) *budgetRun {
	t.Helper()
	run := &budgetRun{streams: map[string][]int{}}
	opts.Progress = func(ev Event) {
		if !ev.Done {
			run.streams[ev.Source] = append(run.streams[ev.Source], ev.Seq, ev.Faults)
		}
	}
	r, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	run.report, run.digest = r, r.ClassDigest()
	run.outcomes = append(run.outcomes, r.Baseline)
	for _, sr := range r.Scenarios {
		run.outcomes = append(run.outcomes, sr.Outcome)
		run.sweeps = append(run.sweeps, sr.Sweep)
		if sr.Sweep == nil {
			continue
		}
		for i := range sr.Sweep.Depths {
			d := &sr.Sweep.Depths[i]
			run.aborted += d.Stats.Aborted
			d.ReplayNS, d.Stats.Elapsed, d.Stats.ReplayElapsed = 0, 0, 0
		}
	}
	for _, o := range run.outcomes {
		run.aborted += o.Stats.Aborted
		o.Stats.Elapsed, o.Stats.ReplayElapsed = 0, 0
	}
	return run
}

func (a *budgetRun) requireEqual(t *testing.T, label string, b *budgetRun) {
	t.Helper()
	if a.digest != b.digest {
		t.Fatalf("%s: class digest %s, the first run's %s", label, b.digest, a.digest)
	}
	sameReport(t, label, a.report, b.report)
	for i, ao := range a.outcomes {
		bo := b.outcomes[i]
		if ao.Stats != bo.Stats {
			t.Fatalf("%s: outcome %d stats %#v, the first run's %#v", label, i, bo.Stats, ao.Stats)
		}
		if !slices.Equal(ao.Status.Bytes(), bo.Status.Bytes()) {
			t.Fatalf("%s: outcome %d statuses differ from the first run's", label, i)
		}
		if !slices.EqualFunc(ao.Patterns, bo.Patterns, slices.Equal) ||
			!slices.EqualFunc(ao.States, bo.States, slices.Equal) {
			t.Fatalf("%s: outcome %d emitted tests differ from the first run's", label, i)
		}
	}
	if !reflect.DeepEqual(a.sweeps, b.sweeps) {
		t.Fatalf("%s: sweep tables differ from the first run's", label)
	}
	if !reflect.DeepEqual(a.streams, b.streams) {
		t.Fatalf("%s: delta streams %v, the first run's %v", label, b.streams, a.streams)
	}
}

// TestWorkerBudgetNotOversubscribed is the oversubscription regression:
// every ATPG provider searches on its own goroutine, so without the shared
// pool three concurrent providers would put three searches in flight. The
// pool caps PEAK concurrent searches at Options.Workers — the high-water
// counter is the proof.
func TestWorkerBudgetNotOversubscribed(t *testing.T) {
	n := benchCircuit(t)
	reg := obs.New()
	// A baseline, a scenario and a sweep: enough concurrent providers that
	// their searches alone would put >2 in flight.
	_, err := RunCampaign(context.Background(), n, fault.NewUniverse(n), []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		Workers:   2,
		MaxFrames: 4,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := reg.Snapshot().Counter("sched.workers.peak")
	if peak > 2 {
		t.Errorf("peak concurrent workers %d exceeds the budget of 2", peak)
	}
	if peak < 1 {
		t.Errorf("peak %d — no worker ever acquired a slot", peak)
	}
}

// TestSchedulerCancellation is the scheduler-path analogue of
// TestCampaignCancellation: cancelling mid-merge with providers contending
// for the slot pool must return the context error, unblock every provider
// parked on the pool, leave no goroutines behind, and leave no class
// counted on the campaign's sched.queue_depth gauge.
func TestSchedulerCancellation(t *testing.T) {
	nl := testutil.RandomNetlist(3, testutil.RandOpts{Inputs: 6, Gates: 40, FFs: 4, Outputs: 3})
	u := fault.NewUniverse(nl)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.New()
	var once sync.Once
	_, err := RunCampaign(ctx, nl, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{
		// A budget below the provider count forces providers to contend on
		// the pool, so cancellation must also reach Acquire waiters.
		Workers: 1,
		Metrics: reg,
		Progress: func(Event) {
			once.Do(cancel) // cancel on the first merged delta
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
	if depth := reg.Snapshot().Counter("sched.queue_depth"); depth != 0 {
		t.Fatalf("sched.queue_depth = %d after the cancelled campaign, want 0", depth)
	}
}

// TestSchedulerTelemetry pins the exactness of the telemetry layer under a
// multi-slot budget with concurrent providers (the default-budget pin is
// TestRegistryMatchesStats) plus the scheduler's own instrumentation: the
// campaign-wide queue-depth gauge drained to zero, search busy time
// observed, and the slot high-water within budget.
func TestSchedulerTelemetry(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	reg := obs.New()
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		Workers:   3,
		MaxFrames: 4,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var want statSum
	want.add(r.Baseline.Stats)
	for _, sr := range r.Scenarios {
		if sr.Sweep != nil {
			for _, d := range sr.Sweep.Depths {
				want.add(d.Stats)
			}
			continue
		}
		want.add(sr.Outcome.Stats)
	}
	if want.classes == 0 || want.detected == 0 || want.untestable == 0 {
		t.Fatalf("degenerate campaign: %+v", want)
	}

	snap := reg.Snapshot()
	for name, wantV := range map[string]int64{
		"atpg.classes":             want.classes,
		"atpg.classes.detected":    want.detected,
		"atpg.classes.untestable":  want.untestable,
		"atpg.classes.aborted":     want.aborted,
		"atpg.classes.sim_dropped": want.simDropped,
		"atpg.patterns":            want.patterns,
		"atpg.backtracks":          want.backtracks,
		"atpg.decisions":           want.decisions,
		"atpg.implications":        want.implications,
	} {
		if got := snap.Counter(name); got != wantV {
			t.Errorf("%s = %d, want %d (summed stats)", name, got, wantV)
		}
	}

	if got := snap.Counter("sched.queue_depth"); got != 0 {
		t.Errorf("sched.queue_depth ends at %d, want 0 (every class handed out or pruned)", got)
	}
	if peak := snap.Counter("sched.workers.peak"); peak < 1 || peak > 3 {
		t.Errorf("sched.workers.peak = %d, want within [1,3]", peak)
	}
	if got := snap.Counter("sched.workers.active"); got != 0 {
		t.Errorf("sched.workers.active ends at %d, want 0", got)
	}
	h, ok := snap.Histograms["sched.worker_busy_ns"]
	if !ok || h.Count == 0 {
		t.Error("sched.worker_busy_ns histogram empty")
	}
}
