package atpg_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// TestDispatchOrderOnBench pins GenerateAll's dispatch order on the bench
// design's mission-reach clone. HardestFirst must order every class exactly
// as a sort with the documented comparator does: descending saturating
// CC(¬v)+CO of the representative's site net, ties in ascending FID. And a
// one-worker GenerateAll whose Replay resolves part of the classes must
// report the screen stage's verdicts, then one report per class left, in
// sorted order. A class is reported as a Detected simulation drop exactly
// when the search tests emitted before it detect it, graded by a fresh
// grader; any other class is reported with its search's verdict, and each
// Detected search consumes the next emitted test, which must detect it.
func TestDispatchOrderOnBench(t *testing.T) {
	clone, sm, obs := benchClone(t, bench.Scenarios(2)[2]) // mission-reach
	u := fault.NewUniverse(clone)
	ann, err := clone.Annotate()
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
	cost := func(fid fault.FID) int32 {
		f := u.FaultOf(fid)
		net := u.NetOf(f.Site)
		return netlist.SatAdd(ann.CCOf(net, f.SA == logic.Zero), ann.CO[net])
	}
	want := slices.Clone(reps)
	slices.SortFunc(want, func(a, b fault.FID) int {
		if ca, cb := cost(a), cost(b); ca != cb {
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})
	saturated := 0
	for _, fid := range reps {
		if cost(fid) == netlist.CostInf {
			saturated++
		}
	}
	if saturated < 2 {
		t.Fatalf("%d classes cost CostInf: too few to pin the order of saturated ties", saturated)
	}
	got := slices.Clone(reps)
	slices.Reverse(got)
	atpg.HardestFirst(u, ann, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("HardestFirst puts class %d (cost %d) at %d, the comparator class %d (cost %d)",
				got[i], cost(got[i]), i, want[i], cost(want[i]))
		}
	}

	// A replay of the first rows of a full run's test set resolves part of
	// the classes.
	opts := atpg.Options{Workers: 1, Sites: sm, ObsPoints: obs}
	full, err := atpg.GenerateAll(context.Background(), clone, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		fid fault.FID
		v   atpg.Verdict
	}
	var calls []call
	replayed, replayRows := fault.NewSet(u), 0
	opts.Progress = func(fid fault.FID, v atpg.Verdict) { calls = append(calls, call{fid, v}) }
	opts.Replay = &atpg.Replay{
		Patterns: full.Patterns[:4],
		States:   full.States[:4],
		Hit: func(lo, hi int, detected *fault.Set) {
			replayed.UnionWith(detected)
			replayRows += hi - lo
		},
	}
	out, err := atpg.GenerateAll(context.Background(), clone, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if st.Replayed == 0 || st.Replayed == len(reps) || st.Screened < 2 {
		t.Fatalf("the replay resolved %d of %d classes and the screen %d: too few for the order to show",
			st.Replayed, len(reps), st.Screened)
	}
	for _, c := range calls[:st.Replayed] {
		if !replayed.Has(c.fid) || c.v != atpg.Detected {
			t.Fatalf("replay reports class %d %v, not a replay hit", c.fid, c.v)
		}
	}
	calls = calls[st.Replayed:]
	left := slices.DeleteFunc(slices.Clone(want), replayed.Has)
	at := make(map[fault.FID]int, len(left))
	for i, fid := range left {
		at[fid] = i
	}

	resolved := replayed.Clone()
	last := -1
	for _, c := range calls[:st.Screened] {
		if i, ok := at[c.fid]; !ok || i <= last || c.v != atpg.Untestable {
			t.Fatalf("screen reports class %d %v after the class at %d of the sorted survivors", c.fid, c.v, last)
		}
		last = at[c.fid]
		resolved.Add(c.fid)
	}
	calls = calls[st.Screened:]

	grader, err := sim.NewGraderSites(clone, u, obs, sm)
	if err != nil {
		t.Fatal(err)
	}
	tests, states := out.Patterns[replayRows:], out.States[replayRows:]
	emitted, searches, drops := 0, 0, 0
	detects := func(lo, hi int, fid fault.FID) bool {
		return lo < hi && grader.Grade(tests[lo:hi], states[lo:hi], []fault.FID{fid}).Has(fid)
	}
	for _, fid := range left {
		if resolved.Has(fid) {
			continue
		}
		if len(calls) == 0 || calls[0].fid != fid {
			t.Fatalf("after %d searches and %d drops, class %d is not reported next", searches, drops, fid)
		}
		c := calls[0]
		calls = calls[1:]
		switch {
		case detects(0, emitted, fid):
			if c.v != atpg.Detected {
				t.Fatalf("class %d is reported %v, but a test emitted before it detects it", fid, c.v)
			}
			drops++
		case c.v == atpg.Detected:
			if !detects(emitted, emitted+1, fid) {
				t.Fatalf("class %d is reported Detected, but neither a test emitted before it nor the next one detects it", fid)
			}
			emitted++
			searches++
		default:
			searches++
		}
	}
	if len(calls) != 0 || emitted != len(tests) {
		t.Fatalf("%d reports and %d emitted tests unaccounted for", len(calls), len(tests)-emitted)
	}
	if searches < 2 || drops != st.SimDropped-st.Replayed || emitted != st.Detected-st.SimDropped {
		t.Fatalf("%d searches, %d of them Detected, and %d drops; the run counts %d simulation drops beyond the replay and %d Detected searches",
			searches, emitted, drops, st.SimDropped-st.Replayed, st.Detected-st.SimDropped)
	}
	t.Logf("%d classes (%d at CostInf): %d replayed, %d screened, %d searched",
		len(reps), saturated, st.Replayed, st.Screened, searches)
}
