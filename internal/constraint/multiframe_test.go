package constraint

import (
	"context"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/testutil"
)

// TestUnrollSiteMapRecordsFrameReplicas pins the shape of the map Unroll
// records: every live, non-synthetic gate that is copied per frame — primary
// inputs and combinational gates — carries exactly Frames-1 replicas of a
// matching kind, while outputs, flip-flops and ties carry none.
func TestUnrollSiteMapRecordsFrameReplicas(t *testing.T) {
	n := netlist.New("smap")
	a := n.Input("a")
	b := n.Input("b")
	one := n.Tie1("one")
	x := n.And("x", a, b)
	y := n.Xor("y", x, one)
	q := n.DFF("q", y)
	n.OutputPort("po", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}

	const frames = 3
	clone := n.Clone()
	_, sm, err := Apply(clone, Unroll{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Empty() {
		t.Fatal("unroll recorded no replicas")
	}

	for gi := range n.Gates {
		gid := netlist.GateID(gi)
		g := clone.Gate(gid)
		reps := sm.Replicas(gid)
		var want int
		switch n.Gates[gi].Kind {
		case netlist.KInput, netlist.KAnd, netlist.KXor:
			want = frames - 1
		default: // tie, DFF (tombstoned), output: never replicated
			want = 0
		}
		if len(reps) != want {
			t.Errorf("gate %q: %d replicas, want %d", n.Gates[gi].Name, len(reps), want)
		}
		for _, rep := range reps {
			rg := clone.Gate(rep)
			if rg.Flags&netlist.FSynthetic == 0 {
				t.Errorf("replica %q of %q is not synthetic", rg.Name, g.Name)
			}
			if rg.Kind != n.Gates[gi].Kind {
				t.Errorf("replica %q kind %v, want %v", rg.Name, rg.Kind, n.Gates[gi].Kind)
			}
			if len(rg.Ins) != len(n.Gates[gi].Ins) {
				t.Errorf("replica %q has %d pins, want %d", rg.Name, len(rg.Ins), len(n.Gates[gi].Ins))
			}
		}
	}
}

// TestMultiFrameInjectionTightensApproximation is the headline behavioral
// change: a fault whose only mission-observable path runs through an earlier
// frame's state. Under final-frame-only injection (the old approximation)
// the unroll scenario wrongly proves it untestable at the observed outputs;
// under multi-frame injection the earlier frame's replica carries the effect
// into the state the output reads, and the fault is detected. The exhaustive
// oracle confirms both verdicts on their respective injections.
func TestMultiFrameInjectionTightensApproximation(t *testing.T) {
	n := netlist.New("tighten")
	a := n.Input("a")
	b := n.Buf("b", a)
	q := n.DFF("q", b)
	n.OutputPort("po", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}

	clone := n.Clone()
	_, sm, err := Apply(clone, Unroll{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := ObserveOutputs(clone) // the on-line checker sees only po
	bg, _ := clone.GateByName("b")
	f := fault.Fault{Site: fault.Site{Gate: bg, Pin: fault.OutputPin}, SA: logic.Zero}

	single, err := atpg.New(clone, atpg.Options{ObsPoints: obs})
	if err != nil {
		t.Fatal(err)
	}
	if r := single.Generate(f); r.Verdict != atpg.Untestable {
		t.Fatalf("final-frame-only: %v, want untestable", r.Verdict)
	}

	multi, err := atpg.New(clone, atpg.Options{ObsPoints: obs, Sites: sm})
	if err != nil {
		t.Fatal(err)
	}
	if r := multi.Generate(f); r.Verdict != atpg.Detected {
		t.Fatalf("multi-frame: %v, want detected", r.Verdict)
	}

	o, err := testutil.NewOracle(clone, obs)
	if err != nil {
		t.Fatal(err)
	}
	if det, _ := o.Detectable(f); det {
		t.Error("oracle: single-site injection should be undetectable at the outputs")
	}
	if det, _ := o.DetectableInjection(sm.Expand(f)); !det {
		t.Error("oracle: multi-frame injection should be detectable at the outputs")
	}
}

// TestMultiFrameMonotonicityRandom is the tightening property on seeded
// random sequential netlists: the multi-frame-injection Untestable set is
// contained in the final-frame-only Untestable set (multi-frame injection
// only adds fault-effect origins — the earlier frames' inputs can always
// reproduce a final-frame-only detection's state while the extra origins
// open paths the old model missed, so on these circuits the Untestable set
// only shrinks). Every multi-site verdict — Untestable and Detected,
// including class-spread ones — is independently re-proven by the
// exhaustive oracle under both observation modes of an unrolled scenario:
// outputs-plus-captures (the sound mission model) and outputs-only.
func TestMultiFrameMonotonicityRandom(t *testing.T) {
	modes := []struct {
		name string
		fn   ObsFn
	}{
		{"outputs+captures", ObserveOutputsAndCaptures},
		{"outputs-only", ObserveOutputs},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, frames := range []int{2, 3} {
			nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 12, FFs: 2, Outputs: 2})
			clone := nl.Clone()
			_, sm, err := Apply(clone, Unroll{Frames: frames})
			if err != nil {
				t.Fatalf("seed %d frames %d: %v", seed, frames, err)
			}
			cu := fault.NewUniverse(clone)
			for _, mode := range modes {
				obs := mode.fn(clone)
				multi, err := atpg.GenerateAll(context.Background(), clone, cu,
					atpg.Options{ObsPoints: obs, Sites: sm})
				if err != nil {
					t.Fatal(err)
				}
				single, err := atpg.GenerateAll(context.Background(), clone, cu,
					atpg.Options{ObsPoints: obs})
				if err != nil {
					t.Fatal(err)
				}

				for id := 0; id < cu.NumFaults(); id++ {
					fid := fault.FID(id)
					if multi.Status.Get(fid) != fault.Untestable {
						continue
					}
					if got := single.Status.Get(fid); got == fault.Detected {
						t.Errorf("seed %d frames %d %s: %s untestable multi-frame but detected final-frame-only",
							seed, frames, mode.name, cu.Describe(cu.FaultOf(fid)))
					}
				}

				if err := testutil.VerifyUntestableSites(cu, multi.Status, obs, sm); err != nil {
					t.Errorf("seed %d frames %d %s: %v", seed, frames, mode.name, err)
				}
				if err := testutil.VerifyDetectedSites(cu, multi.Status, obs, sm); err != nil {
					t.Errorf("seed %d frames %d %s: %v", seed, frames, mode.name, err)
				}
			}
		}
	}
}
