package flow

import (
	"context"
	"strings"
	"testing"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/obs"
	"olfui/internal/sim"
)

// statSum accumulates the work fields of per-run engine stats: it sums every
// field including Classes, because the obs counters count raw per-run
// tallies.
type statSum struct {
	classes, detected, untestable, aborted int64
	simDropped, patterns, backtracks       int64
	decisions, implications, gateEvals     int64
}

func (s *statSum) add(st atpg.Stats) {
	s.classes += int64(st.Classes)
	s.detected += int64(st.Detected)
	s.untestable += int64(st.Untestable)
	s.aborted += int64(st.Aborted)
	s.simDropped += int64(st.SimDropped)
	s.patterns += int64(st.Patterns)
	s.backtracks += int64(st.Backtracks)
	s.decisions += int64(st.Decisions)
	s.implications += int64(st.Implications)
	s.gateEvals += int64(st.GateEvals)
}

// TestRegistryMatchesStats is the telemetry layer's exactness pin: one
// registry hammered by every provider of a swept, parallel campaign
// reports totals identical to the sum of the per-run atpg.Stats — the
// counters mirror GenerateAll's tallies branch for branch, not
// approximately. Run under -race this also proves the recording paths are
// data-race-free in their real usage.
func TestRegistryMatchesStats(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	reg := obs.New()
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		MaxFrames: 4,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sum the per-run stats the way the counters saw them: the baseline and
	// non-swept scenarios contribute their Outcome.Stats, while a swept
	// scenario's converged Outcome.Stats DERIVES its class tallies from the
	// cumulative map — the per-depth Stats entries are what the counters
	// actually recorded.
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
		"atpg.gate_evals":          want.gateEvals,
	} {
		if got := snap.Counter(name); got != wantV {
			t.Errorf("%s = %d, want %d (summed stats)", name, got, wantV)
		}
	}
	if want.classes == 0 || want.detected == 0 || want.untestable == 0 || want.gateEvals == 0 {
		t.Fatalf("degenerate campaign: %+v", want)
	}
	// Every pattern is drop-graded under the dispatch loop's timer.
	if want.patterns != 0 && snap.Counter("atpg.drop.grade_ns") == 0 {
		t.Errorf("atpg.drop.grade_ns = 0 after %d patterns", want.patterns)
	}

	// Every search lands one sample in the latency histogram; resolved-
	// before-dispatch classes never search, so count <= classes.
	h, ok := snap.Histograms["atpg.search_ns"]
	if !ok || h.Count == 0 {
		t.Fatal("atpg.search_ns histogram empty")
	}
	if h.Count > want.classes {
		t.Fatalf("search_ns count %d exceeds %d targeted classes", h.Count, want.classes)
	}

	// The span tree holds one ended child per provider under the campaign
	// root, with its merged delta count.
	root := snap.FindSpan("campaign")
	if root == nil {
		t.Fatal("no campaign root span")
	}
	var totalDeltas int64
	for _, c := range root.Children {
		if !strings.HasPrefix(c.Name, "provider:") {
			t.Fatalf("unexpected campaign child %q", c.Name)
		}
		if c.Open {
			t.Fatalf("provider span %q still open", c.Name)
		}
		totalDeltas += c.Int("deltas")
	}
	if got := snap.Counter("flow.deltas"); got != totalDeltas {
		t.Errorf("flow.deltas = %d, provider spans sum to %d", got, totalDeltas)
	}
	if snap.Counter("flow.delta_entries") == 0 {
		t.Error("flow.delta_entries = 0")
	}
}

// TestProgressSeqMonotonePerSource pins the ordering guarantee the Progress
// documentation promises: within each Event.Source, delta Seq counts 0,1,2,…
// with no gaps; Event.Time, stamped under the merge lock, is non-decreasing
// across ALL events; and a multi-stream provider (the sweep, one source per
// depth) restarts Seq per source while its terminal event totals the deltas
// of all its streams.
func TestProgressSeqMonotonePerSource(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	nextSeq := map[string]int{} // per source
	mergedByProvider := map[string]int{}
	doneSeq := map[string]int{}
	var last time.Time
	sawSweepSources := map[string]bool{}
	_, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		MaxFrames: 4,
		Progress: func(e Event) {
			if e.Time.IsZero() {
				t.Errorf("event from %q: zero Time", e.Provider)
			}
			if e.Time.Before(last) {
				t.Errorf("event from %q: Time went backwards", e.Provider)
			}
			last = e.Time
			if e.Done {
				doneSeq[e.Provider] = e.Seq
				if e.Source != e.Provider {
					t.Errorf("terminal event Source %q != Provider %q", e.Source, e.Provider)
				}
				return
			}
			if e.Source == "" {
				t.Errorf("delta event from %q has empty Source", e.Provider)
				return
			}
			if e.Seq != nextSeq[e.Source] {
				t.Errorf("source %q: Seq %d, want %d", e.Source, e.Seq, nextSeq[e.Source])
			}
			nextSeq[e.Source]++
			mergedByProvider[e.Provider]++
			if strings.HasPrefix(e.Source, "sweep:reach@k=") {
				sawSweepSources[e.Source] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Depths that prove nothing new emit no deltas, so only depths with
	// fresh evidence surface as sources — at least the first must.
	if len(sawSweepSources) < 1 {
		t.Fatal("sweep emitted no per-depth delta source")
	}
	if len(nextSeq) < 3 {
		t.Fatalf("campaign produced %d delta sources, want >= 3 (baseline + scenario + sweep): %v",
			len(nextSeq), nextSeq)
	}
	for prov, want := range mergedByProvider {
		if got, ok := doneSeq[prov]; !ok || got != want {
			t.Errorf("provider %q terminal Seq = %d (done=%v), want %d merged deltas",
				prov, got, ok, want)
		}
	}
}

// TestMetricsOptionValidation pins the single-owner rule for the engine
// options a campaign owns: a caller-set ATPG.Metrics, ATPG.Grader or
// ATPG.Replay is rejected up front at both API layers, each naming its own
// options type.
func TestMetricsOptionValidation(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	grader, err := sim.NewGrader(n, u)
	if err != nil {
		t.Fatal(err)
	}
	for field, bad := range map[string]atpg.Options{
		"ATPG.Metrics": {Metrics: obs.New()},
		"ATPG.Grader":  {Grader: grader},
		"ATPG.Replay":  {Replay: &atpg.Replay{}},
	} {
		c := NewCampaign(n, u, CampaignOptions{ATPG: bad})
		if err := c.Add(&BaselineProvider{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err == nil ||
			!strings.Contains(err.Error(), "flow: CampaignOptions."+field) {
			t.Errorf("Campaign.Run: err %v, want CampaignOptions.%s rejection", err, field)
		}
		if _, err := RunCampaign(context.Background(), n, u, []Scenario{{Name: "s", Observe: constraint.ObserveOutputs}},
			Options{ATPG: bad}); err == nil || !strings.Contains(err.Error(), "flow: Options."+field) {
			t.Errorf("RunCampaign: err %v, want Options.%s rejection", err, field)
		}
	}
}
