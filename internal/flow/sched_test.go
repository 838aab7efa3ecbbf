package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/obs"
	"olfui/internal/testutil"
)

// TestSchedulerInvariance is the scheduler's correctness property: on seeded
// random netlists, campaigns with 4 and 16 workers, each run's workers fed
// by its one coordinator, classify identically to the one-worker run, whose
// searches follow each sorted class list strictly — across one-shot
// scenarios AND the swept per-depth class lists. The backtrack budget is
// raised far above need so no verdict can fall into the only
// order-sensitive state (Aborted).
func TestSchedulerInvariance(t *testing.T) {
	atpgOpts := atpg.Options{BacktrackLimit: 1 << 20}
	scenarios := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2), // sweeps under MaxFrames: one queue per depth
	}
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})

		ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{
			Workers:   1,
			MaxFrames: 4,
			ATPG:      atpgOpts,
		})
		if err != nil {
			t.Fatalf("seed %d: one-worker reference: %v", seed, err)
		}
		requireNoAborts(t, ref, fmt.Sprintf("seed %d workers=1", seed))

		for _, workers := range []int{4, 16} {
			label := fmt.Sprintf("seed %d workers=%d", seed, workers)
			r, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{
				Workers:   workers,
				MaxFrames: 4,
				ATPG:      atpgOpts,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireNoAborts(t, r, label)
			sameReport(t, label, ref, r)
			if rd, sd := ref.ClassDigest(), r.ClassDigest(); rd != sd {
				t.Fatalf("%s: class digest %s, one worker %s", label, sd, rd)
			}
		}
	}
}

// TestWorkerBudgetNotOversubscribed is the oversubscription regression:
// every provider sizes its engine fleet to the full budget, so without the
// shared pool concurrent providers would put several times the budget in
// flight. The pool caps PEAK concurrent searches at Options.Workers — the
// high-water counter is the proof.
func TestWorkerBudgetNotOversubscribed(t *testing.T) {
	n := benchCircuit(t)
	reg := obs.New()
	// A baseline, a scenario and a sweep: enough concurrent providers that
	// their fleets alone would put >2 workers in flight.
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
// TestCampaignCancellation: cancelling mid-merge with queue-fed providers and
// a multi-worker budget must return the context error, unblock every worker
// parked on the slot pool, leave no goroutines behind, and leave no class
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
		// A budget below the provider count forces workers to contend on the
		// pool, so cancellation must also reach Acquire waiters.
		Workers: 2,
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

// TestSchedulerTelemetry pins the multi-worker exactness of the telemetry
// layer (the default-budget pin is TestRegistryMatchesStats) plus the
// scheduler's own instrumentation: the campaign-wide queue-depth gauge
// drained to zero, worker busy time observed, and the worker high-water
// within budget.
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
