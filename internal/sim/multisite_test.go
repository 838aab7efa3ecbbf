package sim

import (
	"testing"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// pairNetlist builds y = op(g0, g1) with both buffers reading one input —
// the minimal model of a fault site (g1) and its time-frame replica (g0).
func pairNetlist(t *testing.T, op func(n *netlist.Netlist, name string) netlist.NetID) (
	*netlist.Netlist, *fault.Universe, *fault.SiteMap, fault.FID, netlist.NetID) {
	t.Helper()
	n := netlist.New("pair")
	a := n.Input("a")
	n.Buf("g0", a)
	n.Buf("g1", a)
	n.OutputPort("po", op(n, "y"))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	g0, _ := n.GateByName("g0")
	g1, _ := n.GateByName("g1")
	sm := fault.NewSiteMap()
	sm.AddReplica(g1, g0)
	fid := u.IDOf(fault.Fault{Site: fault.Site{Gate: g1, Pin: fault.OutputPin}, SA: logic.Zero})
	if fid == fault.InvalidFID {
		t.Fatal("fault not in universe")
	}
	return n, u, sm, fid, a
}

// TestGraderJointInjection pins the joint-fault semantics of multi-site
// grading from both directions:
//
//   - y = OR(g0, g1): each single s-a-0 is masked by the healthy twin
//     branch, but the joint injection kills both branches and is detected —
//     the "extra detection paths" direction of multi-frame injection;
//   - y = XOR(g0, g1): the single s-a-0 flips parity and is detected, but
//     the joint injection diverges in both branches and self-masks — the
//     direction that makes final-frame-only injection unsound as a model of
//     a permanent fault.
func TestGraderJointInjection(t *testing.T) {
	patterns := []Pattern{{logic.Zero}, {logic.One}}

	orFn := func(n *netlist.Netlist, name string) netlist.NetID {
		g0, _ := n.NetByName("g0")
		g1, _ := n.NetByName("g1")
		return n.Or(name, g0, g1)
	}
	xorFn := func(n *netlist.Netlist, name string) netlist.NetID {
		g0, _ := n.NetByName("g0")
		g1, _ := n.NetByName("g1")
		return n.Xor(name, g0, g1)
	}

	for _, tc := range []struct {
		name       string
		build      func(*netlist.Netlist, string) netlist.NetID
		wantSingle bool
		wantJoint  bool
	}{
		{"or-joint-detected", orFn, false, true},
		{"xor-joint-masked", xorFn, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, u, sm, fid, a := pairNetlist(t, tc.build)

			single, err := NewGrader(n, u)
			if err != nil {
				t.Fatal(err)
			}
			if got := single.Grade(patterns, nil, []fault.FID{fid}).Has(fid); got != tc.wantSingle {
				t.Errorf("single-site detection = %v, want %v", got, tc.wantSingle)
			}

			joint, err := NewGraderSites(n, u, nil, sm)
			if err != nil {
				t.Fatal(err)
			}
			if got := joint.Grade(patterns, nil, []fault.FID{fid}).Has(fid); got != tc.wantJoint {
				t.Errorf("joint detection = %v, want %v", got, tc.wantJoint)
			}

			// GradeSeq must agree with the PPSFP grader on the same
			// joint machine.
			stim := Stimulus{Inputs: []netlist.NetID{a}, Cycles: [][]logic.V{{logic.Zero}, {logic.One}}}
			det, err := GradeSeq(n, u, stim, CombObsPoints(n), []fault.FID{fid}, sm, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := det.Has(fid); got != tc.wantJoint {
				t.Errorf("GradeSeq detection = %v, want %v", got, tc.wantJoint)
			}
			det, err = GradeSeq(n, u, stim, CombObsPoints(n), []fault.FID{fid}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := det.Has(fid); got != tc.wantSingle {
				t.Errorf("GradeSeq nil-map detection = %v, want %v", got, tc.wantSingle)
			}
		})
	}
}
