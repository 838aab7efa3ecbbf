package flow

import (
	"context"
	"fmt"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// warmScenarios are two one-shot scenarios and a reach scenario, which
// sweeps under Options.MaxFrames.
func warmScenarios() []Scenario {
	return append(resumeScenarios()[:2], reachScenario(2))
}

// requireSpecified fails when a row of out's test set holds an X: every
// emitted test, searched, replayed or lifted, is fully specified.
func requireSpecified(t *testing.T, label string, out *atpg.Outcome) {
	t.Helper()
	for i := range out.Patterns {
		for _, row := range [...]sim.Pattern{out.Patterns[i], out.States[i]} {
			for _, v := range row {
				if v == logic.X {
					t.Fatalf("%s: emitted row %d holds an X", label, i)
				}
			}
		}
	}
}

// coldResults runs RunCampaign's providers without handing the baseline's
// tests to the scenarios and returns the scenario results in order.
func coldResults(t *testing.T, n *netlist.Netlist, scenarios []Scenario, maxFrames, workers int) []*ScenarioResult {
	t.Helper()
	c := NewCampaign(n, fault.NewUniverse(n), CampaignOptions{Workers: workers})
	if err := c.Add(&BaselineProvider{}); err != nil {
		t.Fatal(err)
	}
	ps := make([]*ScenarioProvider, len(scenarios))
	for i, sc := range scenarios {
		ps[i] = &ScenarioProvider{Scenario: sc}
		if _, ok := sweepableUnroll(sc); ok {
			ps[i].MaxFrames = maxFrames
		}
		if err := c.Add(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := make([]*ScenarioResult, len(ps))
	for i, p := range ps {
		out[i] = p.Result
	}
	return out
}

// TestWarmStartDigestEqual is the warm start's acceptance pin: replaying the
// baseline's tests on every scenario clone changes which classes are
// searched and which are dropped, never a verdict. On seeded random
// netlists, at four workers, every scenario projects exactly what the same
// providers project cold, the replay dropped classes somewhere, every
// scenario's test set, a swept one's included, detects every class it calls
// Detected on its own clone, and no emitted row holds an X.
func TestWarmStartDigestEqual(t *testing.T) {
	warmDropped := int64(0)
	for seed := int64(1); seed <= 4; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})
		scenarios := warmScenarios()
		reg := obs.New()
		warm, err := RunCampaign(context.Background(), n, fault.NewUniverse(n), scenarios,
			Options{Workers: 4, MaxFrames: 4, Metrics: reg})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireNoAborts(t, warm, fmt.Sprintf("seed %d warm", seed))
		warmDropped += reg.Snapshot().Counter("flow.warm.dropped")
		cold := coldResults(t, n, scenarios, 4, 4)
		requireSpecified(t, fmt.Sprintf("seed %d baseline", seed), warm.Baseline)
		for si, sr := range warm.Scenarios {
			label := fmt.Sprintf("seed %d scenario %q", seed, sr.Scenario.Name)
			for id := 0; id < sr.Projected.Len(); id++ {
				if w, c := sr.Projected.Get(fault.FID(id)), cold[si].Projected.Get(fault.FID(id)); w != c {
					t.Fatalf("%s: fault %d projects %v warm, %v cold", label, id, w, c)
				}
			}
			requireSpecified(t, label, sr.Outcome)
			grader, err := sim.NewGraderSites(sr.Clone, sr.Universe, sr.Obs, sr.Sites)
			if err != nil {
				t.Fatal(err)
			}
			det := sr.Outcome.Status.FaultsWith(fault.Detected)
			if got := grader.Grade(sr.Outcome.Patterns, sr.Outcome.States, det).Count(); got != len(det) {
				t.Fatalf("%s: test set detects %d of its %d Detected faults", label, got, len(det))
			}
		}
	}
	if warmDropped == 0 {
		t.Fatal("the baseline's tests dropped no class on any seed; the warm start is untested")
	}
}

// TestWarmStartOracle re-proves the warm start by exhaustive simulation, at
// four workers: every Detected verdict of every scenario (the baseline
// replay's drops among them; a swept scenario's converged verdicts on its
// final clone) is detectable on the scenario's clone, and every class the
// replay dropped at a swept depth, the first depth's baseline replay
// included, is detectable on that depth's clone under its multi-frame
// injection.
func TestWarmStartOracle(t *testing.T) {
	warmDropped := int64(0)
	for seed := int64(5); seed <= 7; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 12, FFs: 2, Outputs: 2})
		reg := obs.New()
		r, err := RunCampaign(context.Background(), n, fault.NewUniverse(n), warmScenarios(), Options{
			Workers:   4,
			MaxFrames: 4,
			Metrics:   reg,
			SweepOnDepth: func(_ string, d SweepDepth) error {
				only := fault.NewStatusMap(d.Universe)
				for _, fid := range d.ReplayDetected {
					only.Set(fid, fault.Detected)
				}
				if err := testutil.VerifyDetectedSites(d.Universe, only, d.Obs, d.Sites); err != nil {
					return fmt.Errorf("k=%d: %w", d.Frames, err)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		warmDropped += reg.Snapshot().Counter("flow.warm.dropped")
		for _, sr := range r.Scenarios {
			if err := testutil.VerifyDetectedSites(sr.Universe, sr.Outcome.Status, sr.Obs, sr.Sites); err != nil {
				t.Fatalf("seed %d scenario %q: %v", seed, sr.Scenario.Name, err)
			}
		}
	}
	if warmDropped == 0 {
		t.Fatal("the baseline's tests dropped no class on any seed; the oracle re-proof is vacuous")
	}
}
