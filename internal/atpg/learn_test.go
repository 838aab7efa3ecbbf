package atpg

import (
	"context"
	"sync/atomic"
	"testing"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// constantConeCircuit builds a netlist whose learning facts are known by
// construction: a tie-fed AND (output can never be 1), an XOR of a net with
// itself (never 1), and an AND of a literal with its own complement (never 1),
// all observed, plus a free path that stays fully testable.
func constantConeCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("learn_const")
	a := n.Input("a")
	b := n.Input("b")
	t0 := n.Tie0("t0")
	x := n.And("x", a, t0) // cantBe(x, 1): tie forces 0
	y := n.Xor("y", b, b)  // cantBe(y, 1): same literal twice
	nb := n.Not("nb", b)
	z := n.And("z", b, nb)     // cantBe(z, 1): complementary literals
	free := n.Or("free", a, b) // fully testable
	n.OutputPort("ox", x)
	n.OutputPort("oy", y)
	n.OutputPort("oz", z)
	n.OutputPort("ofree", free)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLearningConstantConeFacts pins the screen on circuits whose
// unactivatable faults are known by construction: stuck-at-0 faults on nets
// that can never be 1 are screened, the complementary polarity and free
// logic are not.
func TestLearningConstantConeFacts(t *testing.T) {
	n := constantConeCircuit(t)
	graph, err := n.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	learn := BuildLearningOn(n, graph, nil)
	if learn.Facts() == 0 {
		t.Fatal("no facts learned on a circuit full of constant cones")
	}
	u := fault.NewUniverse(n)
	var sm *fault.SiteMap
	for _, tc := range []struct {
		gate     string
		sa       logic.V
		screened bool
	}{
		{"x", logic.Zero, true}, // activation needs good 1; impossible
		{"x", logic.One, false}, // good 0 is reachable
		{"y", logic.Zero, true}, // XOR(b,b) is constant 0
		{"z", logic.Zero, true}, // AND(b, NOT b) is constant 0
		{"free", logic.Zero, false},
		{"free", logic.One, false},
	} {
		gid, ok := n.GateByName(tc.gate)
		if !ok {
			t.Fatalf("no gate %q", tc.gate)
		}
		sa0, sa1 := u.PinFaults(gid, fault.OutputPin)
		fid := sa0
		if u.FaultOf(sa1).SA == tc.sa {
			fid = sa1
		}
		if got := learn.ScreenInjection(sm.Expand(u.FaultOf(fid))); got != tc.screened {
			t.Errorf("%s output s-a-%v: screened=%v, want %v", tc.gate, tc.sa, got, tc.screened)
		}
	}

	// GenerateAll must classify the screened faults Untestable and attribute
	// them to the screen in both Stats and the counter.
	out, err := GenerateAll(context.Background(), n, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Learned == 0 {
		t.Fatal("GenerateAll screened nothing on a circuit full of constant cones")
	}
	if out.Stats.Learned > out.Stats.Untestable {
		t.Fatalf("Learned %d exceeds Untestable %d", out.Stats.Learned, out.Stats.Untestable)
	}
}

// TestLearningScreenSoundOracle is the tentpole's soundness property test:
// on seeded random netlists (and the constant-cone circuit, which guarantees
// the property is exercised), every injection the FIRE-style screen calls
// unactivatable is re-proven undetectable by the exhaustive oracle — under
// both observation modes, since the screen's claim is observation-independent.
func TestLearningScreenSoundOracle(t *testing.T) {
	nets := []*netlist.Netlist{constantConeCircuit(t)}
	for seed := int64(1); seed <= 10; seed++ {
		nets = append(nets, testutil.RandomNetlist(seed,
			testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2}))
	}
	var sm *fault.SiteMap
	totalScreened := 0
	for _, n := range nets {
		graph, err := n.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		learn := BuildLearningOn(n, graph, nil)
		u := fault.NewUniverse(n)
		for _, obsPts := range [][]sim.ObsPoint{sim.CombObsPoints(n), sim.OutputObsPoints(n)} {
			o, err := testutil.NewOracle(n, obsPts)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < u.NumFaults(); id++ {
				f := u.FaultOf(fault.FID(id))
				inj := sm.Expand(f)
				if !learn.ScreenInjection(inj) {
					continue
				}
				totalScreened++
				if detectable, w := o.DetectableInjection(inj); detectable {
					t.Fatalf("%s: screened as unactivatable but oracle detects it with %v",
						u.Describe(f), w)
				}
			}
		}
	}
	if totalScreened == 0 {
		t.Fatal("screen fired on nothing; the property was not exercised")
	}
}

// TestGenerateAllLearnMatchesNoLearn pins verdict invariance of the screen:
// with and without the learning pass, every fault's classification is
// identical (the screen may only pre-resolve faults PODEM would prove
// untestable anyway).
func TestGenerateAllLearnMatchesNoLearn(t *testing.T) {
	nets := []*netlist.Netlist{constantConeCircuit(t), benchCircuit(t)}
	for seed := int64(3); seed <= 8; seed++ {
		nets = append(nets, testutil.RandomNetlist(seed,
			testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2}))
	}
	for ni, n := range nets {
		u := fault.NewUniverse(n)
		withLearn, err := GenerateAll(context.Background(), n, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := GenerateAll(context.Background(), n, u, Options{NoLearn: true})
		if err != nil {
			t.Fatal(err)
		}
		if withLearn.Stats.Aborted != 0 || without.Stats.Aborted != 0 {
			t.Fatalf("netlist %d: aborts; verdict equality only holds absent aborts", ni)
		}
		for id := 0; id < u.NumFaults(); id++ {
			fid := fault.FID(id)
			if a, b := withLearn.Status.Get(fid), without.Status.Get(fid); a != b {
				t.Errorf("netlist %d %s: %v with learning, %v without",
					ni, u.Describe(u.FaultOf(fid)), a, b)
			}
		}
	}
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
