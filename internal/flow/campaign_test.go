package flow

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// waitGoroutines asserts the campaign's provider goroutines drained.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	if err := testutil.WaitGoroutines(base); err != nil {
		t.Fatal(err)
	}
}

func sameReport(t *testing.T, label string, a, b *Report) {
	t.Helper()
	for id := range a.Class {
		fid := fault.FID(id)
		if a.Class[id] != b.Class[id] {
			t.Fatalf("%s: fault %d classified %v vs %v", label, id, a.Class[id], b.Class[id])
		}
		if a.Baseline.Status.Get(fid) != b.Baseline.Status.Get(fid) {
			t.Fatalf("%s: fault %d baseline %v vs %v", label, id,
				a.Baseline.Status.Get(fid), b.Baseline.Status.Get(fid))
		}
		if a.EvidenceName(fid) != b.EvidenceName(fid) {
			t.Fatalf("%s: fault %d evidence %q vs %q", label, id, a.EvidenceName(fid), b.EvidenceName(fid))
		}
	}
	if sa, sb := a.Summarize(), b.Summarize(); sa != sb {
		t.Fatalf("%s: summaries differ: %+v vs %+v", label, sa, sb)
	}
}

// TestCampaignShardInvariance is the acceptance criterion for the streaming
// merge on the benchmark: campaigns with budgets of 1, 4 and 16 workers
// classify it identically, and each baseline's test set detects every fault
// it calls Detected.
func TestCampaignShardInvariance(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	scenarios := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		{
			Name:       "tied-input",
			Transforms: []constraint.Transform{constraint.Tie{Net: "a[0]", Value: logic.Zero}},
			Observe:    constraint.ObserveOutputs,
		},
	}
	ref, err := RunCampaign(context.Background(), n, u, scenarios, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Baseline.Stats.Aborted != 0 {
		t.Fatalf("benchmark aborted %d classes; invariance only holds without aborts", ref.Baseline.Stats.Aborted)
	}
	for _, workers := range []int{1, 4, 16} {
		r, err := RunCampaign(context.Background(), n, u, scenarios, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameReport(t, "workers", ref, r)
		if got, want := r.Baseline.Stats.Classes, ref.Baseline.Stats.Classes; got != want {
			t.Fatalf("workers=%d: baseline targeted %d classes, want %d", workers, got, want)
		}
		// The baseline still carries a pattern set that detects everything
		// it claims.
		det := r.Baseline.Status.FaultsWith(fault.Detected)
		grader, err := sim.NewGrader(n, u)
		if err != nil {
			t.Fatal(err)
		}
		if got := grader.Grade(r.Baseline.Patterns, r.Baseline.States, det).Count(); got != len(det) {
			t.Fatalf("workers=%d: pattern set detects %d/%d", workers, got, len(det))
		}
	}
}

// TestShardInvarianceRandom is the property test: seeded random netlists
// classify byte-identically with 4 workers and with 1.
func TestShardInvarianceRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 14, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(nl)
		scenarios := []Scenario{
			{Name: "online-obs", Observe: constraint.ObserveOutputs},
			{
				Name:       "tied-input",
				Transforms: []constraint.Transform{constraint.Tie{Net: "i0", Value: logic.Zero}},
				Observe:    constraint.ObserveOutputs,
			},
		}
		r1, err := RunCampaign(context.Background(), nl, u, scenarios, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r1.Baseline.Stats.Aborted != 0 {
			t.Fatalf("seed %d aborted classes", seed)
		}
		r4, err := RunCampaign(context.Background(), nl, u, scenarios, Options{Workers: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameReport(t, "seed", r1, r4)
	}
}

// TestCampaignCancellation cancels mid-merge: the campaign must return the
// context error and leave no goroutines behind. CI runs this under -race so
// the context plumbing through the engine dispatch loop is exercised.
func TestCampaignCancellation(t *testing.T) {
	nl := testutil.RandomNetlist(3, testutil.RandOpts{Inputs: 6, Gates: 40, FFs: 4, Outputs: 3})
	u := fault.NewUniverse(nl)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunCampaign(ctx, nl, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{
		Progress: func(Event) {
			once.Do(cancel) // cancel on the first merged delta
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)

	// Pre-cancelled contexts fail fast, also leak-free.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := RunCampaign(pre, nl, u, nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	waitGoroutines(t, base)

	// The scenarios wait for the baseline's tests, so a campaign cancelled,
	// or failed, while the baseline still runs must release them too. With
	// more classes than one delta holds, the baseline's first delta merges
	// from inside its search run.
	big := testutil.RandomNetlist(4, testutil.RandOpts{Inputs: 8, Gates: 200, FFs: 8, Outputs: 4})
	bu := fault.NewUniverse(big)
	if n := len(classesIn(fault.NewCollapse(bu), bu, nil)); n <= deltaChunk {
		t.Fatalf("%d baseline classes fit one delta; the baseline would finish before its first merge", n)
	}
	waiting := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	reg := obs.New()
	err = finishesWithin(t, time.Minute, func() error {
		_, err := RunCampaign(cctx, big, bu, waiting, Options{
			MaxFrames: 3,
			Metrics:   reg,
			Progress: func(e Event) {
				if e.Provider == "full-scan" && !e.Done {
					ccancel()
				}
			},
		})
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled during the baseline: err = %v, want context.Canceled", err)
	}
	if got := reg.Snapshot().Counter("flow.warm.patterns"); got != 0 {
		t.Fatalf("a baseline cancelled mid-run handed over tests: %d replayed", got)
	}
	waitGoroutines(t, base)

	// A provider failing while the baseline runs winds the campaign down.
	tests := newBaselineTests()
	c := NewCampaign(big, bu, CampaignOptions{})
	trigger := make(chan struct{})
	var fire sync.Once
	c.opts.Progress = func(e Event) {
		if e.Provider == "full-scan" && !e.Done {
			fire.Do(func() { close(trigger) })
		}
	}
	if err := c.Add(
		&BaselineProvider{tests: tests},
		&ScenarioProvider{Scenario: waiting[0], baseline: tests},
		&ScenarioProvider{Scenario: waiting[1], MaxFrames: 3, baseline: tests},
		failOn{trigger},
	); err != nil {
		t.Fatal(err)
	}
	err = finishesWithin(t, time.Minute, func() error {
		_, err := c.Run(context.Background())
		return err
	})
	if err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("failed during the baseline: err = %v, want the injected failure", err)
	}
	waitGoroutines(t, base)
}

var errInjected = errors.New("injected failure")

// failOn is a provider that fails once trigger closes.
type failOn struct{ trigger <-chan struct{} }

func (failOn) Name() string     { return "fail-on" }
func (failOn) Channel() Channel { return ChannelMission }
func (f failOn) Run(ctx context.Context, _ Env, _ EmitFn) error {
	select {
	case <-f.trigger:
		return errInjected
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finishesWithin runs fn and fails the test when fn has not returned within
// d, instead of letting a blocked provider hang the campaign.
func finishesWithin(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("campaign still running after %v: a provider is blocked", d)
		return nil
	}
}

// conflictCircuit: i0 -> buf -> DFF -> output. Under single-cycle output
// observation the buffer's faults are provably untestable (the register
// boundary is opaque), yet a two-cycle mission stimulus detects them — the
// canonical unsound-model conflict.
func conflictCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("conflict")
	i0 := n.Input("i0")
	g := n.Buf("g", i0)
	q := n.DFF("q", g)
	n.OutputPort("po", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCampaignConflict(t *testing.T) {
	n := conflictCircuit(t)
	u := fault.NewUniverse(n)
	stim := sim.Stimulus{
		Inputs: []netlist.NetID{n.Gates[n.PrimaryInputs()[0]].Out},
		Cycles: [][]logic.V{{logic.One}, {logic.One}},
	}
	_, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "single-cycle", Observe: constraint.ObserveOutputs},
	}, Options{
		Patterns: []PatternSet{{Name: "two-cycle", Stim: stim}},
	})
	var ce *fault.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want fault.ConflictError", err)
	}
	if ce.Have != fault.Untestable && ce.Incoming != fault.Untestable {
		t.Fatalf("conflict %+v does not involve an untestability proof", ce)
	}
}

// TestCampaignPatternCoverage grades a consistent mission stimulus: the
// campaign succeeds, measures mission coverage against the corrected
// target, and the pattern detections match a direct GradeSeq call.
func TestCampaignPatternCoverage(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	var inputs []netlist.NetID
	for _, g := range n.PrimaryInputs() {
		inputs = append(inputs, n.Gates[g].Out)
	}
	// Inputs: a[0] a[1] b[0] b[1] cin. Two single-cycle vectors.
	stim := sim.Stimulus{Inputs: inputs, Cycles: [][]logic.V{
		{logic.One, logic.Zero, logic.One, logic.One, logic.Zero},
		{logic.Zero, logic.One, logic.One, logic.Zero, logic.One},
	}}
	sets := []PatternSet{{Name: "sweep", Stim: stim}}
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{Patterns: sets})
	if err != nil {
		t.Fatal(err)
	}
	want, err := allFaultGradeSeq(n, u, stim)
	if err != nil {
		t.Fatal(err)
	}
	if r.PatternDetected == nil || r.PatternDetected.Count() == 0 {
		t.Fatal("pattern provider detected nothing")
	}
	if got := r.PatternDetected.Count(); got != want.Count() {
		t.Fatalf("pattern detections %d, direct GradeSeq %d", got, want.Count())
	}
	s := r.Summarize()
	if s.MissionDetected != r.PatternDetected.Count() {
		t.Fatalf("summary MissionDetected %d, set %d", s.MissionDetected, r.PatternDetected.Count())
	}
	if s.MissionCoverage() <= 0 || s.MissionCoverage() > 1 {
		t.Fatalf("mission coverage %v out of range", s.MissionCoverage())
	}
	if !strings.Contains(r.String(), "mission pattern coverage") {
		t.Fatalf("report missing mission coverage line:\n%s", r.String())
	}
	// This circuit has no rewired stems, so every pattern detection is a
	// fault the corrected target keeps — no conflict, full count.
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if r.PatternDetected.Has(fid) && r.Class[fid] == FuncUntestable {
			t.Fatalf("fault %d mission-detected yet classified func-untestable", id)
		}
	}
}

// TestCampaignRaggedPatternSetFails feeds the pattern provider a set with a
// row shorter than its inputs: the campaign fails with an error naming the
// set and the cycle, instead of an index panic in the provider's goroutine
// taking the whole process down.
func TestCampaignRaggedPatternSetFails(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	var inputs []netlist.NetID
	for _, g := range n.PrimaryInputs() {
		inputs = append(inputs, n.Gates[g].Out)
	}
	stim := sim.Stimulus{Inputs: inputs, Cycles: [][]logic.V{
		{logic.One, logic.Zero, logic.One, logic.One, logic.Zero},
		{logic.Zero},
	}}
	_, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{Patterns: []PatternSet{{Name: "ragged", Stim: stim}}})
	if err == nil || !strings.Contains(err.Error(), `pattern set "ragged"`) || !strings.Contains(err.Error(), "cycle 1") {
		t.Fatalf("err = %v, want one naming pattern set \"ragged\" and cycle 1", err)
	}
}

// TestMissionCoverageExcludesStemDetections pins the stem-attribution edge:
// a Tie-disconnected stem is classified functionally untestable from the
// scenario's viewpoint, yet even a mission-legal stimulus (the tied input
// held at its tie value) detects the stem's opposite-polarity fault on the
// original netlist, where the net is live. The missionLive filter keeps the
// campaign from failing with a conflict, and Summarize must exclude the
// detection so MissionCoverage cannot exceed 100%.
func TestMissionCoverageExcludesStemDetections(t *testing.T) {
	n := netlist.New("stem")
	tin := n.Input("t")
	a := n.Input("a")
	n.OutputPort("po", n.And("g", tin, a))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	stim := sim.Stimulus{
		Inputs: []netlist.NetID{tin, a},
		Cycles: [][]logic.V{{logic.One, logic.One}, {logic.One, logic.Zero}},
	}
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{
			Name:       "tied",
			Transforms: []constraint.Transform{constraint.Tie{Net: "t", Value: logic.One}},
			Observe:    constraint.ObserveOutputs,
		},
	}, Options{Patterns: []PatternSet{{Name: "toggle", Stim: stim}}})
	if err != nil {
		t.Fatalf("stem detection must not conflict: %v", err)
	}
	// The disconnected stem is classified untestable yet pattern-detected.
	tg, _ := n.GateByName("t")
	stem := u.IDOf(fault.Fault{Site: fault.Site{Gate: tg, Pin: fault.OutputPin}, SA: logic.Zero})
	if got := r.Class[stem]; got != FuncUntestable {
		t.Fatalf("stem class %v, want func-untestable", got)
	}
	if !r.PatternDetected.Has(stem) {
		t.Fatal("stimulus should detect the stem on the original netlist")
	}
	s := r.Summarize()
	wantDetected := 0
	r.PatternDetected.ForEach(func(fid fault.FID) {
		if r.Class[fid] != FuncUntestable {
			wantDetected++
		}
	})
	if s.MissionDetected != wantDetected {
		t.Fatalf("MissionDetected %d, want %d (stem detections excluded)", s.MissionDetected, wantDetected)
	}
	if s.MissionDetected >= r.PatternDetected.Count() {
		t.Fatal("no detection was excluded; the stem edge is not exercised")
	}
	if cov := s.MissionCoverage(); cov < 0 || cov > 1 {
		t.Fatalf("mission coverage %v out of [0,1]", cov)
	}
}

func allFaultGradeSeq(n *netlist.Netlist, u *fault.Universe, stim sim.Stimulus) (*fault.Set, error) {
	all := make([]fault.FID, u.NumFaults())
	for id := range all {
		all[id] = fault.FID(id)
	}
	return sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), all, nil, nil)
}

// TestPatternProviderObservedGatePin grades a set observed at an input pin
// of an AND gate, where structural equivalence does not hold: the collapse
// merges g/A, g/B and g/Z stuck-at-0 (and the fanout-free stems a/Z and b/Z
// with them), yet with a = b = 1 only g/A and a/Z stuck-at-0 show at g/A.
// The provider must then grade every fault alone and detect exactly what a
// direct grading of all faults detects.
func TestPatternProviderObservedGatePin(t *testing.T) {
	n := netlist.New("gate-pin")
	a := n.Input("a")
	b := n.Input("b")
	n.OutputPort("po", n.And("g", a, b))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	g, _ := n.GateByName("g")
	pts := []sim.ObsPoint{{Gate: g, Pin: 0}}
	stim := sim.Stimulus{Inputs: []netlist.NetID{a, b}, Cycles: [][]logic.V{{logic.One, logic.One}}}
	p := &PatternProvider{Sets: []PatternSet{{
		Name: "and-pin", Stim: stim,
		Observe: func(*netlist.Netlist) []sim.ObsPoint { return pts },
	}}}
	if err := p.Run(context.Background(), Env{N: n, Universe: u}, func(fault.Delta) error { return nil }); err != nil {
		t.Fatal(err)
	}
	all := make([]fault.FID, u.NumFaults())
	for id := range all {
		all[id] = fault.FID(id)
	}
	want, err := sim.GradeSeq(n, u, stim, pts, all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range all {
		if p.Detected.Has(fid) != want.Has(fid) {
			t.Errorf("%s: provider says %v, direct grading %v",
				u.Describe(u.FaultOf(fid)), p.Detected.Has(fid), want.Has(fid))
		}
	}
	if want.Count() != 2 {
		t.Fatalf("direct grading detects %d faults, want g/A and a/Z stuck-at-0", want.Count())
	}
}

// TestCampaignProgressEvents checks the per-provider event stream: ordered
// delta sequences and exactly one terminal event per provider.
func TestCampaignProgressEvents(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	var (
		mu     sync.Mutex
		deltas = map[string]int{}
		done   = map[string]int{}
	)
	_, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{
		Progress: func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Done {
				done[e.Provider]++
				if e.Err != nil {
					t.Errorf("provider %q failed: %v", e.Provider, e.Err)
				}
				if e.Seq != deltas[e.Provider] {
					t.Errorf("provider %q: terminal Seq %d, merged %d deltas", e.Provider, e.Seq, deltas[e.Provider])
				}
				return
			}
			if e.Seq != deltas[e.Provider] {
				t.Errorf("provider %q: delta seq %d, want %d", e.Provider, e.Seq, deltas[e.Provider])
			}
			deltas[e.Provider]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"full-scan", "scenario:online-obs"}
	if len(done) != len(want) {
		t.Fatalf("terminal events for %d providers, want %d (%v)", len(done), len(want), done)
	}
	for _, name := range want {
		if done[name] != 1 {
			t.Errorf("provider %q: %d terminal events", name, done[name])
		}
		if deltas[name] == 0 {
			t.Errorf("provider %q merged no deltas", name)
		}
	}
}

// failingProvider returns a fixed error from Run without emitting.
type failingProvider struct{ err error }

func (p *failingProvider) Name() string     { return "failing" }
func (p *failingProvider) Channel() Channel { return ChannelMission }
func (p *failingProvider) Run(context.Context, Env, EmitFn) error {
	return p.err
}

// TestCampaignProviderInternalContextError: a context error produced by the
// provider itself — not by the campaign winding down — is a real failure;
// swallowing it would silently drop the provider's evidence.
func TestCampaignProviderInternalContextError(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	c := NewCampaign(n, u, CampaignOptions{})
	if err := c.Add(&failingProvider{err: context.DeadlineExceeded}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), `provider "failing"`) {
		t.Fatalf("err = %v, want provider failure carrying the internal deadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

func TestCampaignConfig(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	c := NewCampaign(n, u, CampaignOptions{})
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("no providers: want error")
	}
	if err := c.Add(&PatternProvider{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&PatternProvider{}); err == nil {
		t.Error("duplicate provider name: want error")
	}
	bad := NewCampaign(n, u, CampaignOptions{ATPG: atpg.Options{ObsPoints: sim.OutputObsPoints(n)}})
	if err := bad.Add(&PatternProvider{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Run(context.Background()); err == nil {
		t.Error("preset ObsPoints: want error")
	}
	if _, err := RunCampaign(context.Background(), n, u, nil, Options{ATPG: atpg.Options{Classes: []fault.FID{0}}}); err == nil {
		t.Error("preset Classes: want error")
	}
	// Annotations are per-netlist: an original-netlist table handed to a
	// scenario clone would index out of range, so campaigns reject it.
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(context.Background(), n, u, nil, Options{ATPG: atpg.Options{Annotations: ann}}); err == nil {
		t.Error("preset Annotations: want error")
	}
	withAnn := NewCampaign(n, u, CampaignOptions{ATPG: atpg.Options{Annotations: ann}})
	if err := withAnn.Add(&PatternProvider{}); err != nil {
		t.Fatal(err)
	}
	if _, err := withAnn.Run(context.Background()); err == nil {
		t.Error("campaign with preset Annotations: want error")
	}
}
