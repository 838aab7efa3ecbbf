package flow

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/obs"
	"olfui/internal/testutil"
)

// reachScenario is the swept shape: an unconstrained k-frame reach scenario
// observed at outputs plus captures.
func reachScenario(frames int) Scenario {
	return Scenario{
		Name:       "reach",
		Transforms: []constraint.Transform{constraint.Unroll{Frames: frames}},
		Observe:    constraint.ObserveOutputsAndCaptures,
	}
}

// TestSweepMatchesOneShotFinalDepth is the sweep's flow-level acceptance
// pin: on seeded random netlists, the adaptive sweep's converged
// classification equals a one-shot run at the sweep's final depth — depth is
// a dimension, not a different analysis. A sweep whose budget is its
// starting depth runs one depth, and its converged Stats are that depth's,
// field for field.
func TestSweepMatchesOneShotFinalDepth(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(n)
		swept, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(2)}, Options{MaxFrames: 4})
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		sw := swept.Scenarios[0].Sweep
		if sw == nil {
			t.Fatalf("seed %d: scenario did not sweep", seed)
		}
		if sw.FinalFrames != sw.Depths[len(sw.Depths)-1].Frames {
			t.Fatalf("seed %d: final frames %d but last depth %d",
				seed, sw.FinalFrames, sw.Depths[len(sw.Depths)-1].Frames)
		}
		if !sw.Converged && sw.FinalFrames != 4 {
			t.Fatalf("seed %d: unconverged sweep stopped at %d, not the budget", seed, sw.FinalFrames)
		}
		oneshot, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(sw.FinalFrames)}, Options{})
		if err != nil {
			t.Fatalf("seed %d: one-shot: %v", seed, err)
		}
		if swept.Scenarios[0].Outcome.Stats.Aborted != 0 || oneshot.Scenarios[0].Outcome.Stats.Aborted != 0 {
			t.Fatalf("seed %d: aborts; equality only holds absent aborts", seed)
		}
		for id := range swept.Class {
			if swept.Class[id] != oneshot.Class[id] {
				t.Errorf("seed %d fault %d: %v swept vs %v one-shot at k=%d",
					seed, id, swept.Class[id], oneshot.Class[id], sw.FinalFrames)
			}
		}
		single, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(2)}, Options{MaxFrames: 2})
		if err != nil {
			t.Fatalf("seed %d: one-depth sweep: %v", seed, err)
		}
		if sr := single.Scenarios[0]; len(sr.Sweep.Depths) != 1 || sr.Outcome.Stats != sr.Sweep.Depths[0].Stats {
			t.Errorf("seed %d: one-depth sweep's Stats %+v, its depth's %+v", seed, sr.Outcome.Stats, sr.Sweep.Depths)
		}
	}
}

// TestSweepPerDepthOracle re-proves every depth's verdicts by exhaustive
// simulation while the sweep is running: at each depth, every Untestable and
// Detected verdict on the clone universe is checked against the clone's
// current state under the current multi-frame injection map — cross-depth
// verdict comparability, certified depth by depth.
func TestSweepPerDepthOracle(t *testing.T) {
	for seed := int64(5); seed <= 7; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 12, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(n)
		var depths []int
		opts := Options{
			MaxFrames: 4,
			SweepOnDepth: func(scenario string, d SweepDepth) error {
				depths = append(depths, d.Frames)
				if err := testutil.VerifyUntestableSites(d.Universe, d.Status, d.Obs, d.Sites); err != nil {
					return err
				}
				return testutil.VerifyDetectedSites(d.Universe, d.Status, d.Obs, d.Sites)
			},
		}
		r, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(2)}, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sw := r.Scenarios[0].Sweep
		if len(depths) != len(sw.Depths) {
			t.Fatalf("seed %d: observer saw %d depths, result records %d", seed, len(depths), len(sw.Depths))
		}
		for i, d := range depths {
			if want := 2 + i; d != want {
				t.Fatalf("seed %d: depth %d swept out of order: k=%d, want k=%d", seed, i, d, want)
			}
		}
	}
}

// TestSweepDepthAttribution pins the delta protocol shape: every merged
// mission verdict from a swept scenario is attributed to the per-depth source
// that proved it, and untestability never re-announces at deeper depths (the
// resolved classes are dropped, so attribution sticks with the proving
// depth).
func TestSweepDepthAttribution(t *testing.T) {
	n := testutil.RandomNetlist(9, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
	u := fault.NewUniverse(n)
	c := NewCampaign(n, u, CampaignOptions{})
	sp := &ScenarioProvider{Scenario: reachScenario(2), MaxFrames: 4}
	if err := c.Add(sp); err != nil {
		t.Fatal(err)
	}
	ev, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	attributed := 0
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if ev.Mission.Get(fid) != fault.Untestable {
			continue
		}
		src := ev.Mission.Source(fid)
		if !strings.HasPrefix(src, "sweep:reach@k=") {
			t.Fatalf("fault %d attributed to %q, want a per-depth sweep source", id, src)
		}
		attributed++
	}
	if attributed == 0 {
		t.Fatal("sweep proved no mission untestability; attribution untested")
	}
}

// TestSweepClassesDropsResolved pins the per-depth work-list rule: collapse
// representatives already proven untestable are dropped, everything else
// stays targeted.
func TestSweepClassesDropsResolved(t *testing.T) {
	n := testutil.RandomNetlist(13, testutil.RandOpts{Inputs: 3, Gates: 10, FFs: 2, Outputs: 2})
	clone := n.Clone()
	if _, _, err := constraint.Apply(clone, constraint.Unroll{Frames: 2}); err != nil {
		t.Fatal(err)
	}
	cu := fault.NewUniverse(clone)
	collapse := fault.NewCollapse(cu)
	cum := fault.NewStatusMap(cu)
	all := classesIn(collapse, cu, nil)
	if len(all) == 0 {
		t.Fatal("no classes planned")
	}
	dropped := map[fault.FID]bool{all[0]: true, all[len(all)-1]: true}
	for fid := range dropped {
		cum.Set(fid, fault.Untestable)
	}
	cum.Set(all[1], fault.Detected) // detected faults are re-targeted
	got := classesIn(collapse, cu, cum)
	if len(got) != len(all)-len(dropped) {
		t.Fatalf("%d classes after dropping %d of %d", len(got), len(dropped), len(all))
	}
	for _, fid := range got {
		if dropped[fid] {
			t.Fatalf("class %d still targeted after being proven untestable", fid)
		}
	}
}

// TestSweepRetargetedAccounting is the progress-accounting regression pin:
// every sweep depth re-counts its targets on "atpg.classes", so a class left
// unresolved (aborted) at one depth and re-targeted at the next used to be
// counted live twice by any view computing live = classes - resolved. The
// "atpg.classes.retargeted" counter must record exactly those duplicates:
// subtracting it leaves the true number of still-unresolved classes, which at
// the end of a sweep is its aborted class count.
func TestSweepRetargetedAccounting(t *testing.T) {
	n := testutil.RandomNetlist(1, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
	u := fault.NewUniverse(n)
	reg := obs.New()
	// A backtrack limit of 1 forces aborts at every depth on this seed, so
	// re-targeted unresolved classes are guaranteed.
	c := NewCampaign(n, u, CampaignOptions{ATPG: atpg.Options{BacktrackLimit: 1}, Metrics: reg})
	sp := &ScenarioProvider{Scenario: reachScenario(2), MaxFrames: 4}
	if err := c.Add(sp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sp.Result.Sweep.Depths) < 2 {
		t.Fatalf("sweep ran %d depth(s); re-targeting needs at least two", len(sp.Result.Sweep.Depths))
	}
	snap := reg.Snapshot()
	classes := snap.Counter("atpg.classes")
	resolved := snap.Counter("atpg.classes.detected") + snap.Counter("atpg.classes.untestable")
	retargeted := snap.Counter("atpg.classes.retargeted")
	if retargeted == 0 {
		t.Fatal("no re-targeted classes recorded; the regression is not exercised (pick a harder seed)")
	}
	want := int64(sp.Result.Outcome.Stats.Aborted)
	if live := classes - resolved - retargeted; live != want {
		t.Fatalf("live = classes %d - resolved %d - retargeted %d = %d, want %d (the aborted class count)",
			classes, resolved, retargeted, live, want)
	}
	// Sanity of the regression itself: without the correction the old
	// formula over-reports by the re-target count.
	if naive := classes - resolved; naive == want {
		t.Fatal("uncorrected live already matches; test lost its subject")
	}
}

// TestSweepConfigErrors pins the flow-level validation: a budget below the
// scenario's starting depth and a budget with nothing to sweep are both
// rejected up front.
func TestSweepConfigErrors(t *testing.T) {
	n := testutil.RandomNetlist(2, testutil.RandOpts{Inputs: 3, Gates: 10, FFs: 2, Outputs: 2})
	u := fault.NewUniverse(n)
	if _, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(3)}, Options{MaxFrames: 2}); err == nil {
		t.Error("MaxFrames below starting frames: want error")
	}
	noUnroll := Scenario{Name: "flat", Observe: constraint.ObserveOnline}
	if _, err := RunCampaign(context.Background(), n, u, []Scenario{noUnroll}, Options{MaxFrames: 3}); err == nil {
		t.Error("MaxFrames with no sweepable scenario: want error")
	}
	// A directly constructed swept ScenarioProvider checks the same shape:
	// its Run fails unless the stack ends in an Unroll.
	unrollFirst := Scenario{
		Name: "unroll-first",
		Transforms: []constraint.Transform{constraint.Unroll{Frames: 2},
			constraint.Tie{Net: "i0", Value: logic.Zero}},
		Observe: constraint.ObserveOutputsAndCaptures,
	}
	for _, sc := range []Scenario{noUnroll, unrollFirst} {
		c := NewCampaign(n, u, CampaignOptions{})
		if err := c.Add(&ScenarioProvider{Scenario: sc, MaxFrames: 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err == nil {
			t.Errorf("direct swept ScenarioProvider over %q: want error", sc.Name)
		}
	}
}

// TestSweepReplayDigestEqual is the warm start's acceptance pin: the
// cross-depth warm start changes which classes are searched versus
// sim-dropped, never what any fault classifies as — on seeded random
// netlists the swept classification digest is byte-identical to a one-shot
// campaign at the sweep's final depth, which replays only the baseline's
// tests, on a fresh grader. The loop also asserts
// replay actually engaged somewhere, so the equality is not vacuous; that
// every depth after the first replays exactly the rows the depth before it
// emitted; and that the converged test set, the final depth's, holds no X
// and is what the converged Stats.Patterns counts.
func TestSweepReplayDigestEqual(t *testing.T) {
	replayDropped := int64(0)
	for seed := int64(1); seed <= 4; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(n)
		reg := obs.New()
		warm, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(2)}, Options{MaxFrames: 4, Metrics: reg})
		if err != nil {
			t.Fatalf("seed %d: replay run: %v", seed, err)
		}
		final := warm.Scenarios[0].Sweep.FinalFrames
		oneshot, err := RunCampaign(context.Background(), n, u, []Scenario{reachScenario(final)}, Options{})
		if err != nil {
			t.Fatalf("seed %d: one-shot run: %v", seed, err)
		}
		requireNoAborts(t, warm, fmt.Sprintf("seed %d sweep", seed))
		requireNoAborts(t, oneshot, fmt.Sprintf("seed %d one-shot", seed))
		requireSpecified(t, fmt.Sprintf("seed %d sweep", seed), warm.Scenarios[0].Outcome)
		depths := warm.Scenarios[0].Sweep.Depths
		for i := 1; i < len(depths); i++ {
			if got, want := depths[i].ReplayPatterns, depths[i-1].Stats.Patterns; got != want {
				t.Errorf("seed %d k=%d: replayed %d rows, the previous depth emitted %d",
					seed, depths[i].Frames, got, want)
			}
		}
		if out := warm.Scenarios[0].Outcome; out.Stats.Patterns != len(out.Patterns) {
			t.Errorf("seed %d: converged Stats.Patterns %d, test set holds %d rows",
				seed, out.Stats.Patterns, len(out.Patterns))
		}
		if w, o := warm.ClassDigest(), oneshot.ClassDigest(); w != o {
			t.Errorf("seed %d: classification digest %s swept, %s one-shot at k=%d", seed, w, o, final)
		}
		snap := reg.Snapshot()
		replayDropped += snap.Counter("flow.sweep.replay.dropped")
		if pats, ns := snap.Counter("flow.sweep.replay.patterns"), len(warm.Scenarios[0].Sweep.Depths); ns >= 2 && pats == 0 {
			t.Errorf("seed %d: %d depths swept but no patterns replayed", seed, ns)
		}
	}
	if replayDropped == 0 {
		t.Fatal("replay never dropped a class across any seed; the warm start is untested")
	}
}

// TestSweepReplayOracle re-proves every replay-detected class by exhaustive
// simulation, synchronously at the depth it was dropped (the clone is
// extended afterwards): each representative the replay resolved must be
// Detected in the depth status and genuinely detectable on the current clone
// under the current multi-frame injection — pattern replay is a sound
// verdict source, not just a fast one.
func TestSweepReplayOracle(t *testing.T) {
	totalReplayed := 0
	for seed := int64(5); seed <= 7; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 12, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(n)
		c := NewCampaign(n, u, CampaignOptions{})
		sp := &ScenarioProvider{
			Scenario:  reachScenario(2),
			MaxFrames: 4,
			OnDepth: func(d SweepDepth) error {
				if len(d.ReplayDetected) == 0 {
					return nil
				}
				only := fault.NewStatusMap(d.Universe)
				for _, fid := range d.ReplayDetected {
					if st := d.Status.Get(fid); st != fault.Detected {
						return fmt.Errorf("k=%d: replay-detected class %d has status %v", d.Frames, fid, st)
					}
					only.Set(fid, fault.Detected)
				}
				totalReplayed += len(d.ReplayDetected)
				return testutil.VerifyDetectedSites(d.Universe, only, d.Obs, d.Sites)
			},
		}
		if err := c.Add(sp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if totalReplayed == 0 {
		t.Fatal("replay never dropped a class across any seed; the oracle re-proof is vacuous")
	}
}
