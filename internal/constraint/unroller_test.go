package constraint

import (
	"context"
	"fmt"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/testutil"
)

// assertNetlistsEquivalent pins structural equivalence up to gate/net
// numbering: both clones carry the same live gates by name — same kind,
// synthetic flag, input net names and output net name — and the same capture
// group contents. Gate IDs differ between an extended clone and a fresh
// unroll (frames append in a different order relative to captures and
// splices), so identity is checked through names, which the Unroller derives
// deterministically from frame indices.
func assertNetlistsEquivalent(t *testing.T, got, want *netlist.Netlist) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("extended clone invalid: %v", err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("fresh clone invalid: %v", err)
	}
	if g, w := got.NumGates(), want.NumGates(); g != w {
		t.Fatalf("live gate count %d, want %d", g, w)
	}
	if g, w := len(got.Nets), len(want.Nets); g != w {
		t.Fatalf("net count %d, want %d", g, w)
	}
	netName := func(n *netlist.Netlist, id netlist.NetID) string {
		if id == netlist.InvalidNet {
			return "<none>"
		}
		return n.Net(id).Name
	}
	for wi := range want.Gates {
		wg := want.Gate(netlist.GateID(wi))
		if wg.Kind == netlist.KDead {
			continue
		}
		gid, ok := got.GateByName(wg.Name)
		if !ok {
			t.Fatalf("gate %q missing from extended clone", wg.Name)
		}
		gg := got.Gate(gid)
		if gg.Kind != wg.Kind {
			t.Errorf("gate %q: kind %v, want %v", wg.Name, gg.Kind, wg.Kind)
		}
		if gg.Flags&netlist.FSynthetic != wg.Flags&netlist.FSynthetic {
			t.Errorf("gate %q: synthetic flag mismatch", wg.Name)
		}
		if len(gg.Ins) != len(wg.Ins) {
			t.Fatalf("gate %q: %d inputs, want %d", wg.Name, len(gg.Ins), len(wg.Ins))
		}
		for p := range wg.Ins {
			if g, w := netName(got, gg.Ins[p]), netName(want, wg.Ins[p]); g != w {
				t.Errorf("gate %q pin %d reads %q, want %q", wg.Name, p, g, w)
			}
		}
		if g, w := netName(got, gg.Out), netName(want, wg.Out); g != w {
			t.Errorf("gate %q drives %q, want %q", wg.Name, g, w)
		}
	}
	gotCaps := gateNames(got, got.Groups[CaptureGroup])
	wantCaps := gateNames(want, want.Groups[CaptureGroup])
	if fmt.Sprint(gotCaps) != fmt.Sprint(wantCaps) {
		t.Errorf("capture group %v, want %v", gotCaps, wantCaps)
	}
}

func gateNames(n *netlist.Netlist, ids []netlist.GateID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = n.Gate(id).Name
	}
	return out
}

// assertSiteMapsEquivalent pins that both maps record, per original gate, the
// same replicas in the same (frame) order, compared through replica names.
func assertSiteMapsEquivalent(t *testing.T, orig *netlist.Netlist,
	got *netlist.Netlist, gotSM *fault.SiteMap, want *netlist.Netlist, wantSM *fault.SiteMap) {
	t.Helper()
	if g, w := gotSM.Len(), wantSM.Len(); g != w {
		t.Fatalf("site map records %d replicas, want %d", g, w)
	}
	for gi := range orig.Gates {
		gid := netlist.GateID(gi)
		g := gateNames(got, gotSM.Replicas(gid))
		w := gateNames(want, wantSM.Replicas(gid))
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("gate %q replicas %v, want %v", orig.Gates[gi].Name, g, w)
		}
	}
}

// extendTo builds an Unroller at `start` frames and extends it to `end`,
// checking the clone validates and the frame count tracks along the way.
func extendTo(t *testing.T, n *netlist.Netlist, u Unroll, end int) (*netlist.Netlist, *fault.SiteMap, *Unroller) {
	t.Helper()
	clone := n.Clone()
	sm := fault.NewSiteMap()
	ur, err := NewUnroller(clone, sm, u)
	if err != nil {
		t.Fatal(err)
	}
	for ur.Frames() < end {
		if err := ur.Extend(); err != nil {
			t.Fatal(err)
		}
		if err := clone.Validate(); err != nil {
			t.Fatalf("clone invalid after extend to %d frames: %v", ur.Frames(), err)
		}
	}
	if ur.Frames() != end {
		t.Fatalf("frames = %d, want %d", ur.Frames(), end)
	}
	return clone, sm, ur
}

// TestUnrollerExtendEquivalentToFresh is the tentpole's acceptance pin:
// extending an unrolled clone from k to k+1 (and further) yields a clone,
// capture set and site map equivalent to a fresh unroll at the final depth,
// for free and reset initial state and from every starting depth including 1.
func TestUnrollerExtendEquivalentToFresh(t *testing.T) {
	n := testutil.RandomNetlist(11, testutil.RandOpts{Inputs: 4, Gates: 30, FFs: 3, Outputs: 3})
	for _, tc := range []struct {
		name       string
		start, end int
		resetInit  bool
	}{
		{"k1-to-2", 1, 2, false},
		{"k2-to-3", 2, 3, false},
		{"k2-to-5", 2, 5, false},
		{"reset-k2-to-4", 2, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := Unroll{Frames: tc.start, ResetInit: tc.resetInit}
			got, gotSM, _ := extendTo(t, n, u, tc.end)

			fresh := n.Clone()
			freshSM, err := ApplyMapped(fresh, Unroll{Frames: tc.end, ResetInit: tc.resetInit})
			if err != nil {
				t.Fatal(err)
			}
			assertNetlistsEquivalent(t, got, fresh)
			assertSiteMapsEquivalent(t, n, got, gotSM, fresh, freshSM)
		})
	}
}

// TestUnrollerExtendVerdictEquivalence closes the loop at the verdict level:
// ATPG over the extended clone and over a fresh unroll at the same depth
// classifies every fault identically under multi-frame injection (the two
// clones enumerate identical universes — original gate IDs are preserved —
// so status maps compare index-wise).
func TestUnrollerExtendVerdictEquivalence(t *testing.T) {
	n := testutil.RandomNetlist(23, testutil.RandOpts{Inputs: 3, Gates: 15, FFs: 2, Outputs: 2})
	const finalFrames = 3
	got, gotSM, _ := extendTo(t, n, Unroll{Frames: 2}, finalFrames)
	fresh := n.Clone()
	freshSM, err := ApplyMapped(fresh, Unroll{Frames: finalFrames})
	if err != nil {
		t.Fatal(err)
	}

	gu, fu := fault.NewUniverse(got), fault.NewUniverse(fresh)
	if gu.NumFaults() != fu.NumFaults() {
		t.Fatalf("universe sizes differ: %d vs %d", gu.NumFaults(), fu.NumFaults())
	}
	gout, err := atpg.GenerateAll(context.Background(), got, gu,
		atpg.Options{ObsPoints: ObserveOutputsAndCaptures(got), Sites: gotSM})
	if err != nil {
		t.Fatal(err)
	}
	fout, err := atpg.GenerateAll(context.Background(), fresh, fu,
		atpg.Options{ObsPoints: ObserveOutputsAndCaptures(fresh), Sites: freshSM})
	if err != nil {
		t.Fatal(err)
	}
	if gout.Stats.Aborted != 0 || fout.Stats.Aborted != 0 {
		t.Fatalf("aborts (%d extended, %d fresh): verdict equivalence only holds absent aborts",
			gout.Stats.Aborted, fout.Stats.Aborted)
	}
	for id := 0; id < gu.NumFaults(); id++ {
		fid := fault.FID(id)
		if g, w := gout.Status.Get(fid), fout.Status.Get(fid); g != w {
			t.Errorf("fault %s: %v extended, %v fresh", gu.Describe(gu.FaultOf(fid)), g, w)
		}
	}
}

// TestUnrollerNilSiteMapIdentity pins that an Unroller built without a site
// map extends cleanly and keeps the nil-map identity semantics end to end.
func TestUnrollerNilSiteMapIdentity(t *testing.T) {
	n := testutil.RandomNetlist(5, testutil.RandOpts{Inputs: 3, Gates: 12, FFs: 2, Outputs: 2})
	clone := n.Clone()
	ur, err := NewUnroller(clone, nil, Unroll{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ur.Extend(); err != nil {
		t.Fatal(err)
	}
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := n.Clone()
	if err := Apply(fresh, Unroll{Frames: 3}); err != nil {
		t.Fatal(err)
	}
	assertNetlistsEquivalent(t, clone, fresh)
}

// TestUnrollerAnnotationOrderMatchesAnnotate pins that the Unroller's
// maintained topological order plus netlist.AnnotateAppended reproduce,
// value-for-value, what a from-scratch Annotate computes on the extended
// clone — across two successive extends with an annotation step between.
func TestUnrollerAnnotationOrderMatchesAnnotate(t *testing.T) {
	n := testutil.RandomNetlist(17, testutil.RandOpts{Inputs: 4, Gates: 40, FFs: 3, Outputs: 3})
	clone := n.Clone()
	ur, err := NewUnroller(clone, nil, Unroll{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := clone.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		if err := ur.Extend(); err != nil {
			t.Fatal(err)
		}
		order, from := ur.AnnotationOrder()
		ann, err = clone.AnnotateAppended(ann, order, from)
		if err != nil {
			t.Fatal(err)
		}
		full, err := clone.Annotate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range clone.Nets {
			net := netlist.NetID(i)
			if ann.Level[net] != full.Level[net] || ann.CC0[net] != full.CC0[net] ||
				ann.CC1[net] != full.CC1[net] || ann.CO[net] != full.CO[net] {
				t.Fatalf("step %d net %q: incremental (L=%d CC0=%d CC1=%d CO=%d) vs full (L=%d CC0=%d CC1=%d CO=%d)",
					step, clone.Net(net).Name,
					ann.Level[net], ann.CC0[net], ann.CC1[net], ann.CO[net],
					full.Level[net], full.CC0[net], full.CC1[net], full.CO[net])
			}
		}
	}
}

// TestBuildUnrollerStackErrors pins BuildUnroller's contract: the stack must
// be non-empty and end in an Unroll; leading transforms apply in order.
func TestBuildUnrollerStackErrors(t *testing.T) {
	n := testutil.RandomNetlist(3, testutil.RandOpts{Inputs: 3, Gates: 10, FFs: 2, Outputs: 2})
	if _, _, err := BuildUnroller(n.Clone(), nil); err == nil {
		t.Error("empty stack: want error")
	}
	if _, _, err := BuildUnroller(n.Clone(), []Transform{Unroll{Frames: 2}, Tie{Net: "i0", Value: logic.Zero}}); err == nil {
		t.Error("unroll not last: want error")
	}
	clone := n.Clone()
	ur, sm, err := BuildUnroller(clone, []Transform{Unroll{Frames: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Frames() != 2 || sm.Empty() {
		t.Fatalf("frames=%d, sm.Len=%d", ur.Frames(), sm.Len())
	}
}
