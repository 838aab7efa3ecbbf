package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// eagerGenerateAll is the reference for a GenerateAll without a
// replay: the drop loop GenerateAll ran before it checked each class at the
// head of the order. It sorts and screens the classes as GenerateAll does,
// then searches them in order. Every completed test is graded at once
// against every class still live, Aborted ones included, and each hit is a
// simulation drop; a hit on an Aborted class upgrades it. It returns the
// outcome and the number of upgrades.
func eagerGenerateAll(t *testing.T, n *netlist.Netlist, u *fault.Universe, opts Options) (*Outcome, int) {
	t.Helper()
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	grader, err := sim.NewGraderSites(n, u, opts.ObsPoints, opts.Sites)
	if err != nil {
		t.Fatal(err)
	}
	collapse := fault.NewCollapse(u)
	var reps []fault.FID
	for id := 0; id < u.NumFaults(); id++ {
		if fid := fault.FID(id); collapse.Rep(fid) == fid {
			reps = append(reps, fid)
		}
	}
	status := fault.NewStatusMap(u)
	out := &Outcome{Status: status}
	st := &out.Stats
	st.Faults, st.Classes = u.NumFaults(), len(reps)
	hardestFirst(u, ann, reps)
	reps = grader.Screen(reps, func(fid fault.FID, _ sim.ScreenRule) {
		status.Set(fid, fault.Untestable)
		st.Untestable++
		st.Screened++
	})
	live := slices.Clone(reps)
	eng := NewWithAnnotations(n, ann, opts)
	upgraded := 0
	for _, fid := range reps {
		if status.Get(fid) != fault.Undetected {
			continue
		}
		res := eng.Generate(u.FaultOf(fid))
		st.Backtracks += res.Backtracks
		st.Decisions += res.Decisions
		st.Implications += res.Implications
		st.GateEvals += res.GateEvals
		switch res.Verdict {
		case Untestable:
			status.Set(fid, fault.Untestable)
			st.Untestable++
		case Aborted:
			status.Set(fid, fault.Aborted)
			st.Aborted++
		case Detected:
			completeTest(fid, res.Pattern, res.State)
			status.Set(fid, fault.Detected)
			st.Detected++
			out.Patterns = append(out.Patterns, res.Pattern)
			out.States = append(out.States, res.State)
			st.Patterns++
			live = slices.DeleteFunc(live, func(c fault.FID) bool {
				s := status.Get(c)
				return s == fault.Detected || s == fault.Untestable
			})
			grader.Grade([]sim.Pattern{res.Pattern}, []sim.Pattern{res.State}, live).ForEach(func(hit fault.FID) {
				if status.Get(hit) == fault.Aborted {
					st.Aborted--
					upgraded++
				}
				status.Set(hit, fault.Detected)
				st.Detected++
				st.SimDropped++
			})
		}
	}
	status.SpreadClasses(collapse)
	return out, upgraded
}

// eagerCase checks GenerateAll against eagerGenerateAll on one
// generated case and returns the reference's Aborted classes and upgrades.
// The clone is a random netlist from netSeed whose primary input i is tied
// to i%2 through constraint.Tie when bit i of tied is set, and, with unroll,
// unrolled to two frames with the replica site map. Observation follows
// obsChoice: full scan (on an unrolled clone, its outputs and capture
// probes), the outputs only, or a random subset of the full-scan points,
// drawn from obsSeed, plus two random gate input pins. The backtrack limit
// is 1 + limit%4. Every status, the emitted tests in order, and every Stats
// count must match.
func eagerCase(t *testing.T, netSeed int64, tied uint8, unroll bool, obsSeed int64, obsChoice, limit uint8) (aborted, upgraded int) {
	t.Helper()
	n := testutil.RandomNetlist(netSeed, testutil.RandOpts{Inputs: 6, Gates: 40, FFs: 3, Outputs: 3})
	var ts []constraint.Transform
	for i, g := range n.PrimaryInputs() {
		if tied>>uint(i)&1 == 1 {
			ts = append(ts, constraint.Tie{Net: n.Gates[g].Name, Value: logic.FromBit(uint64(i))})
		}
	}
	if unroll {
		ts = append(ts, constraint.Unroll{Frames: 2})
	}
	_, sm, err := constraint.Apply(n, ts...)
	if err != nil {
		t.Fatal(err)
	}
	full := sim.CombObsPoints(n)
	if unroll {
		full = constraint.ObserveOutputsAndCaptures(n)
	}
	var pts []sim.ObsPoint
	switch obsChoice % 3 {
	case 0:
		pts = full
	case 1:
		pts = sim.OutputObsPoints(n)
	case 2:
		pts = testutil.ObsWithGatePins(rand.New(rand.NewSource(obsSeed)), n, full)
	}
	what := fmt.Sprintf("net %d, tied %#x, unroll %v, obs %d/%d, limit %d",
		netSeed, tied, unroll, obsChoice%3, obsSeed, 1+limit%4)

	u := fault.NewUniverse(n)
	opts := Options{ObsPoints: pts, Sites: sm, BacktrackLimit: 1 + int(limit%4)}
	got, err := GenerateAll(context.Background(), n, u, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, upgraded := eagerGenerateAll(t, n, u, opts)
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if g, w := got.Status.Get(fid), want.Status.Get(fid); g != w {
			t.Fatalf("%s: %s is %v, the eager drop loop says %v", what, u.Describe(u.FaultOf(fid)), g, w)
		}
	}
	if !slices.EqualFunc(got.Patterns, want.Patterns, slices.Equal) ||
		!slices.EqualFunc(got.States, want.States, slices.Equal) {
		t.Fatalf("%s: emitted %d tests, the eager drop loop %d, or not the same tests in the same order",
			what, len(got.Patterns), len(want.Patterns))
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, ws.Elapsed = 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, the eager drop loop %+v", what, gs, ws)
	}
	return want.Stats.Aborted + upgraded, upgraded
}

// TestGenerateAllMatchesEagerDrop pins the dispatch check against the drop
// loop it replaced: over generated clones with tied inputs, with and
// without a two-frame unroll's replica site map, under full-scan,
// output-only and gate-pin observation, at backtrack limits of 1 to 4,
// GenerateAll reports every status, emits every test in order
// and counts every Stats field as eagerGenerateAll does. It fails unless
// some class aborts and some Aborted class is upgraded by a later test, so
// both paths are exercised.
func TestGenerateAllMatchesEagerDrop(t *testing.T) {
	aborted, upgraded := 0, 0
	for netSeed := int64(1); netSeed <= 6; netSeed++ {
		for _, unroll := range []bool{false, true} {
			for obs := uint8(0); obs < 3; obs++ {
				a, up := eagerCase(t, netSeed, uint8(netSeed*11), unroll, netSeed+int64(obs), obs, uint8(netSeed)+obs)
				aborted += a
				upgraded += up
			}
		}
	}
	if aborted == 0 || upgraded == 0 {
		t.Fatalf("%d classes aborted and %d were upgraded: both paths must be exercised", aborted, upgraded)
	}
	t.Logf("%d classes aborted, %d of them upgraded by a later test", aborted, upgraded)
}

// FuzzGenerateAllEager is eagerCase over generated cases. The seed corpus in
// testdata/fuzz/FuzzGenerateAllEager holds one case per observation choice,
// with and without an unroll.
func FuzzGenerateAllEager(f *testing.F) {
	f.Fuzz(func(t *testing.T, netSeed int64, tied uint8, unroll bool, obsSeed int64, obsChoice, limit uint8) {
		eagerCase(t, netSeed, tied, unroll, obsSeed, obsChoice, limit)
	})
}
