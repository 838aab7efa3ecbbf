package testutil

import (
	"context"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

func TestOracleDetectsAllAndGateFaults(t *testing.T) {
	n := netlist.New("and")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("y", a, b))
	u := fault.NewUniverse(n)
	o, err := NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < u.NumFaults(); id++ {
		f := u.FaultOf(fault.FID(id))
		if det, _ := o.Detectable(f); !det {
			t.Errorf("fault %s not detectable", u.Describe(f))
		}
	}
}

func TestOracleRefusesRedundantFault(t *testing.T) {
	// y = OR(a, AND(a,b)): absorption makes the AND output s-a-0 redundant.
	n := netlist.New("red")
	a, b := n.Input("a"), n.Input("b")
	ab := n.And("ab", a, b)
	n.OutputPort("po", n.Or("y", a, ab))
	abGate, _ := n.GateByName("ab")
	o, err := NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Site: fault.Site{Gate: abGate, Pin: fault.OutputPin}, SA: logic.Zero}
	if det, w := o.Detectable(f); det {
		t.Errorf("redundant fault reported detectable by %v", w)
	}
	f.SA = logic.One
	if det, _ := o.Detectable(f); !det {
		t.Error("ab/Z s-a-1 should be detectable (a=0, b=anything... a=0 makes y=ab)")
	}
}

func TestOracleObsRestriction(t *testing.T) {
	// The AND cone feeds only a flip-flop D pin; the OR cone feeds a PO.
	n := netlist.New("obsr")
	a, b := n.Input("a"), n.Input("b")
	hidden := n.And("hidden", a, b)
	n.DFF("q", hidden) // q unread: cone observable only at the D pin
	n.OutputPort("po", n.Or("vis", a, b))
	hg, _ := n.GateByName("hidden")
	f := fault.Fault{Site: fault.Site{Gate: hg, Pin: fault.OutputPin}, SA: logic.Zero}

	full, err := NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if det, _ := full.Detectable(f); !det {
		t.Error("full-scan oracle should see the fault at the D pin")
	}
	olOnly, err := NewOracle(n, sim.OutputObsPoints(n))
	if err != nil {
		t.Fatal(err)
	}
	if det, w := olOnly.Detectable(f); det {
		t.Errorf("output-only oracle detected the hidden fault with %v", w)
	}
}

func TestOracleManyInputsUsesParallelLanes(t *testing.T) {
	// 8 inputs exercise both the lane masks (j<6) and the block constants.
	n := netlist.New("wide")
	var ins []netlist.NetID
	for i := 0; i < 8; i++ {
		ins = append(ins, n.Input(string(rune('a'+i))))
	}
	n.OutputPort("po", n.And("y", ins...))
	yg, _ := n.GateByName("y")
	o, err := NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// AND output s-a-0 needs the all-ones assignment — the very last one.
	f := fault.Fault{Site: fault.Site{Gate: yg, Pin: fault.OutputPin}, SA: logic.Zero}
	det, w := o.Detectable(f)
	if !det {
		t.Fatal("8-input AND s-a-0 must be detectable")
	}
	for i, v := range w {
		if v != logic.One {
			t.Errorf("witness[%d] = %s, want 1", i, v)
		}
	}
}

func TestOracleInputLimit(t *testing.T) {
	n := netlist.New("big")
	var ins []netlist.NetID
	for i := 0; i < MaxExhaustiveInputs+1; i++ {
		ins = append(ins, n.Input(string(rune('a'))+string(rune('0'+i/10))+string(rune('0'+i%10))))
	}
	n.OutputPort("po", n.Or("y", ins...))
	if _, err := NewOracle(n, nil); err == nil {
		t.Fatal("want input-limit error")
	}
}

func TestRandomNetlistDeterministicAndValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		a := RandomNetlist(seed, RandOpts{Inputs: 5, Gates: 18, FFs: 2, Outputs: 3})
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := RandomNetlist(seed, RandOpts{Inputs: 5, Gates: 18, FFs: 2, Outputs: 3})
		if len(a.Gates) != len(b.Gates) || len(a.Nets) != len(b.Nets) {
			t.Fatalf("seed %d: nondeterministic build", seed)
		}
		for i := range a.Gates {
			if a.Gates[i].Kind != b.Gates[i].Kind || a.Gates[i].Name != b.Gates[i].Name {
				t.Fatalf("seed %d: gate %d differs", seed, i)
			}
		}
	}
}

// TestATPGVerdictsAgainstOracle is the core property test: on randomized
// small netlists, every Untestable verdict GenerateAll emits — under
// full-scan and under output-only observation — must survive exhaustive
// simulation, and every Detected verdict must be exhaustively detectable.
func TestATPGVerdictsAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		nl := RandomNetlist(seed, RandOpts{Inputs: 4, Gates: 14, FFs: 2, Outputs: 2})
		u := fault.NewUniverse(nl)
		for _, obs := range [][]sim.ObsPoint{nil, sim.OutputObsPoints(nl)} {
			out, err := atpg.GenerateAll(context.Background(), nl, u, atpg.Options{ObsPoints: obs})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := VerifyUntestable(u, out.Status, obs); err != nil {
				t.Errorf("seed %d obs=%v: %v", seed, obs != nil, err)
			}
			if err := VerifyDetected(u, out.Status, obs); err != nil {
				t.Errorf("seed %d obs=%v: %v", seed, obs != nil, err)
			}
		}
	}
}
