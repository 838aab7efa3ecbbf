package atpg

import (
	"context"
	"testing"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// constantConeCircuit builds a netlist whose constant nets are known by
// construction: a tie-fed AND (its output can never be 1), an XOR of a net
// with itself (never 1), and an AND of a literal with its own complement
// (never 1), all observed, plus a free path that stays fully testable.
func constantConeCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("const_cone")
	a := n.Input("a")
	b := n.Input("b")
	t0 := n.Tie0("t0")
	x := n.And("x", a, t0) // a tie forces 0
	y := n.Xor("y", b, b)  // the same literal twice
	nb := n.Not("nb", b)
	z := n.And("z", b, nb)     // complementary literals
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

// TestConstantConeVerdicts pins who settles the faults of the constant-cone
// circuit. x = AND(a, tie0) is 0 in a ternary pass with every input X, so
// the screen retires x s-a-0. y = XOR(b, b) and z = AND(b, NOT b) are
// constant 0 only through reconvergence, which the ternary pass leaves at
// X: the screen keeps their s-a-0 faults, and PODEM proves them Untestable
// by search. Every other listed fault is Detected.
func TestConstantConeVerdicts(t *testing.T) {
	n := constantConeCircuit(t)
	u := fault.NewUniverse(n)
	grader, err := sim.NewGrader(n, u)
	if err != nil {
		t.Fatal(err)
	}
	var all []fault.FID
	for id := range u.NumFaults() {
		all = append(all, fault.FID(id))
	}
	retired := map[fault.FID]sim.ScreenRule{}
	grader.Screen(all, func(fid fault.FID, rule sim.ScreenRule) { retired[fid] = rule })

	out, err := GenerateAll(context.Background(), n, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gate     string
		sa       logic.V
		want     fault.Status
		screened bool
	}{
		{"x", logic.Zero, fault.Untestable, true}, // activation needs x = 1
		{"x", logic.One, fault.Detected, false},
		{"y", logic.Zero, fault.Untestable, false}, // XOR(b, b) is 0
		{"z", logic.Zero, fault.Untestable, false}, // AND(b, NOT b) is 0
		{"free", logic.Zero, fault.Detected, false},
		{"free", logic.One, fault.Detected, false},
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
		name := u.Describe(u.FaultOf(fid))
		if rule, ok := retired[fid]; ok != tc.screened || ok && rule != sim.ScreenConstant {
			t.Errorf("%s: screen rule %v (retired %v), want retired %v by the constant rule", name, rule, ok, tc.screened)
		}
		if got := out.Status.Get(fid); got != tc.want {
			t.Errorf("%s: GenerateAll says %v, want %v", name, got, tc.want)
		}
		if !tc.screened && tc.want == fault.Untestable {
			if r := eng.Generate(u.FaultOf(fid)); r.Verdict != Untestable {
				t.Errorf("%s: search verdict %v, want untestable", name, r.Verdict)
			}
		}
	}
	if out.Stats.Screened == 0 || out.Stats.Screened > out.Stats.Untestable {
		t.Fatalf("Screened %d, Untestable %d: want 0 < Screened <= Untestable",
			out.Stats.Screened, out.Stats.Untestable)
	}
}

// TestGenerateAllScreenMatchesSearch pins the verdict invariance of the
// screen stage: every class GenerateAll resolves, screened or searched,
// gets the verdict a lone search of the class proves (Engine.Generate), so
// the screen only ever settles classes a search would prove Untestable. It
// runs at full-scan and at output-only observation, where many more sites
// have no path to an observation point, so both rules fire.
func TestGenerateAllScreenMatchesSearch(t *testing.T) {
	nets := []*netlist.Netlist{constantConeCircuit(t), benchCircuit(t)}
	for seed := int64(3); seed <= 8; seed++ {
		nets = append(nets, testutil.RandomNetlist(seed,
			testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2}))
	}
	screened := 0
	for ni, n := range nets {
		u := fault.NewUniverse(n)
		collapse := fault.NewCollapse(u)
		for _, obsPts := range [][]sim.ObsPoint{nil, sim.OutputObsPoints(n)} {
			opts := Options{ObsPoints: obsPts}
			out, err := GenerateAll(context.Background(), n, u, opts)
			if err != nil {
				t.Fatal(err)
			}
			screened += out.Stats.Screened
			eng, err := New(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			for id := range u.NumFaults() {
				fid := fault.FID(id)
				if collapse.Rep(fid) != fid {
					continue
				}
				want := fault.Detected
				switch r := eng.Generate(u.FaultOf(fid)); r.Verdict {
				case Untestable:
					want = fault.Untestable
				case Aborted:
					t.Fatalf("netlist %d: %s aborted; verdict equality only holds absent aborts",
						ni, u.Describe(u.FaultOf(fid)))
				}
				if got := out.Status.Get(fid); got != want {
					t.Errorf("netlist %d, %d observation points: %s is %v in GenerateAll, %v by search",
						ni, len(obsPts), u.Describe(u.FaultOf(fid)), got, want)
				}
			}
		}
	}
	if screened == 0 {
		t.Fatal("the screen retired nothing; the invariance was not exercised")
	}
}
