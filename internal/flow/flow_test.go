package flow

import (
	"context"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/testutil"
)

// benchCircuit builds a small dp-based datapath with an on-line blind spot:
// an adder and its outputs are mission-observable, while an XOR cone feeds
// only a trace register (debug state, never driven to a primary output).
func benchCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("bench")
	a := dp.InputBus(n, "a", 2)
	b := dp.InputBus(n, "b", 2)
	cin := n.Input("cin")
	sum, cout := dp.RippleAdder(n, "add", a, b, cin)
	dp.OutputBus(n, "res", sum)
	n.OutputPort("cout", cout)
	xr := dp.XorBus(n, "xr", a, b)
	dp.RegisterBus(n, "trace", xr) // Q unread: full-scan-only observability
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAcceptanceOnlineObservation is the PR's acceptance criterion: on a
// dp-built benchmark circuit the flow proves faults functionally untestable
// under an output-only-observation scenario although they are Detected
// full-scan, and the exhaustive-simulation oracle confirms every such
// verdict.
func TestAcceptanceOnlineObservation(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The trace-register XOR cone: detected full-scan, functionally
	// untestable on-line.
	xg, ok := n.GateByName("xr[0]")
	if !ok {
		t.Fatal("no gate xr[0]")
	}
	fid := u.IDOf(fault.Fault{Site: fault.Site{Gate: xg, Pin: fault.OutputPin}, SA: logic.Zero})
	if got := r.Baseline.Status.Get(fid); got != fault.Detected {
		t.Fatalf("xr[0]/Z s-a-0 full-scan: %v, want detected", got)
	}
	if got := r.Class[fid]; got != FuncUntestable {
		t.Fatalf("xr[0]/Z s-a-0 class: %v, want func-untestable", got)
	}
	if got := r.EvidenceName(fid); got != "online-obs" {
		t.Fatalf("evidence %q, want online-obs", got)
	}

	s := r.Summarize()
	if s.OverCounted < 1 {
		t.Fatalf("over-counted faults = %d, want >= 1", s.OverCounted)
	}
	if s.CorrectedTarget() >= s.Faults {
		t.Fatal("corrected target must exclude the functionally untestable faults")
	}
	if s.FuncUntestable < s.OverCounted {
		t.Fatalf("FU %d < over-counted %d: impossible", s.FuncUntestable, s.OverCounted)
	}
	if cc, fc := s.CorrectedCoverage(), s.FullScanCoverage(); cc == 0 || fc == 0 {
		t.Fatalf("degenerate coverages %v %v", cc, fc)
	}

	// Oracle confirmation of EVERY untestability verdict the scenario
	// emitted (on the scenario's own clone, universe and obs points).
	for _, sr := range r.Scenarios {
		if err := testutil.VerifyUntestableSites(sr.Universe, sr.Outcome.Status, sr.Obs, sr.Sites); err != nil {
			t.Errorf("scenario %q: %v", sr.Scenario.Name, err)
		}
	}
}

func TestFlowMissionScenarioStack(t *testing.T) {
	// Scan cell + adder: tying the scan pins plus output-only observation
	// must classify the scan-leg faults functionally untestable.
	n := netlist.New("mission")
	a := dp.InputBus(n, "a", 2)
	b := dp.InputBus(n, "b", 2)
	se := n.Input("scan_en")
	si := n.Input("scan_in")
	sum, cout := dp.RippleAdder(n, "add", a, b, n.Tie0("c0"))
	_ = cout
	var q dp.Bus
	for i := range sum {
		m := n.Mux2(sumName("sm", i), sum[i], si, se)
		q = append(q, n.DFF(sumName("acc", i), m))
	}
	dp.OutputBus(n, "res", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	r, err := RunCampaign(context.Background(), n, u, []Scenario{
		{
			Name: "mission",
			Transforms: []constraint.Transform{
				constraint.Tie{Net: "scan_en", Value: logic.Zero},
				constraint.Tie{Net: "scan_in", Value: logic.Zero},
			},
			// ObserveOnline keeps the accumulator registers transparent
			// (their state reaches the outputs), so the functional adder
			// path stays testable while the dead scan legs do not.
			Observe: constraint.ObserveOnline,
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg, _ := n.GateByName("sm0")
	d1 := u.IDOf(fault.Fault{Site: fault.Site{Gate: mg, Pin: netlist.MuxD1}, SA: logic.One})
	if got := r.Class[d1]; got != FuncUntestable {
		t.Errorf("scan leg sm0/D1 s-a-1: %v, want func-untestable", got)
	}
	if got := r.EvidenceName(d1); got != "mission" {
		t.Errorf("evidence %q, want mission", got)
	}
	// The functional adder path must stay testable through the registers.
	ag, _ := n.GateByName("add_fa0_s")
	fa := u.IDOf(fault.Fault{Site: fault.Site{Gate: ag, Pin: fault.OutputPin}, SA: logic.Zero})
	if got := r.Class[fa]; got != FullScanTestable {
		t.Errorf("adder sum fault: %v, want full-scan-testable", got)
	}
	for _, sr := range r.Scenarios {
		if err := testutil.VerifyUntestableSites(sr.Universe, sr.Outcome.Status, sr.Obs, sr.Sites); err != nil {
			t.Errorf("scenario %q: %v", sr.Scenario.Name, err)
		}
	}
}

func sumName(p string, i int) string { return p + string(rune('0'+i)) }

// TestFlowPropertyRandom drives the full pipeline over randomized netlists
// and oracle-verifies every scenario's untestability verdicts, including
// k-frame unrolled clones.
func TestFlowPropertyRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 12, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(nl)
		scenarios := []Scenario{
			{Name: "online-obs", Observe: constraint.ObserveOutputs},
			{
				Name:       "tied-input",
				Transforms: []constraint.Transform{constraint.Tie{Net: "i0", Value: logic.Zero}},
				Observe:    constraint.ObserveOutputs,
			},
			{
				Name:       "reach-2",
				Transforms: []constraint.Transform{constraint.Unroll{Frames: 2}},
				Observe:    constraint.ObserveOutputsAndCaptures,
			},
		}
		r, err := RunCampaign(context.Background(), nl, u, scenarios, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, sr := range r.Scenarios {
			if err := testutil.VerifyUntestableSites(sr.Universe, sr.Outcome.Status, sr.Obs, sr.Sites); err != nil {
				t.Errorf("seed %d scenario %q: %v", seed, sr.Scenario.Name, err)
			}
		}
		// Classification invariants: evidence lines up with the proving
		// scenario's projected verdict; FullScanTestable implies baseline
		// detection.
		for id, cl := range r.Class {
			fid := fault.FID(id)
			switch cl {
			case FuncUntestable:
				ev, ok := r.Evidence(fid)
				if !ok {
					t.Fatalf("seed %d: FU fault %d without evidence", seed, id)
				}
				if ev == EvidenceFullScan {
					if got := r.Baseline.Status.Get(fid); got != fault.Untestable {
						t.Fatalf("seed %d: full-scan evidence but baseline %v", seed, got)
					}
				} else if got := r.Scenarios[ev].Projected.Get(fid); got != fault.Untestable {
					t.Fatalf("seed %d: scenario evidence but projected %v", seed, got)
				}
			case FullScanTestable:
				if got := r.Baseline.Status.Get(fid); got != fault.Detected {
					t.Fatalf("seed %d: FullScanTestable but baseline %v", seed, got)
				}
			}
		}
	}
}

func TestFlowConfigErrors(t *testing.T) {
	n := netlist.New("cfg")
	n.OutputPort("po", n.Input("a"))
	u := fault.NewUniverse(n)
	if _, err := RunCampaign(context.Background(), n, u, []Scenario{{Name: ""}}, Options{}); err == nil {
		t.Error("empty scenario name: want error")
	}
	if _, err := RunCampaign(context.Background(), n, u, []Scenario{{Name: "x"}, {Name: "x"}}, Options{}); err == nil {
		t.Error("duplicate scenario name: want error")
	}
	if _, err := RunCampaign(context.Background(), n, u, nil, Options{ATPG: atpg.Options{ObsPoints: constraint.ObserveOutputs(n)}}); err == nil {
		t.Error("preset ObsPoints: want error")
	}
	bad := []Scenario{{
		Name:       "bad",
		Transforms: []constraint.Transform{constraint.Tie{Net: "nosuch", Value: logic.Zero}},
	}}
	if _, err := RunCampaign(context.Background(), n, u, bad, Options{}); err == nil {
		t.Error("bad transform: want error")
	}
}

func TestReportRendering(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	r, err := RunCampaign(context.Background(), n, u, []Scenario{{Name: "online-obs", Observe: constraint.ObserveOutputs}},
		Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"online-obs", "corrected on-line target", "full-scan coverage"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
