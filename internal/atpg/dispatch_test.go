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
// report the screen stage's verdicts, then the searches', in that order
// over the classes the replay left: the test replays the coordinator's
// bookkeeping, grading each search's emitted test against the classes still
// live to know which drops follow it.
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
	next, searches := 0, 0
	for len(calls) > 0 {
		for next < len(left) && resolved.Has(left[next]) {
			next++
		}
		c := calls[0]
		calls = calls[1:]
		if next == len(left) || c.fid != left[next] {
			t.Fatalf("search %d reports class %d, the next class in order is at %d of %d", searches, c.fid, next, len(left))
		}
		next++
		searches++
		if c.v != atpg.Aborted { // an Aborted class stays live: a later test may drop it
			resolved.Add(c.fid)
		}
		if c.v != atpg.Detected {
			continue
		}
		live := slices.DeleteFunc(slices.Clone(left), resolved.Has)
		grader.Grade(tests[:1], states[:1], live).ForEach(func(fid fault.FID) {
			if len(calls) == 0 || calls[0] != (call{fid, atpg.Detected}) {
				t.Fatalf("after the test of class %d, want class %d dropped", c.fid, fid)
			}
			calls = calls[1:]
			resolved.Add(fid)
		})
		tests, states = tests[1:], states[1:]
	}
	if searches < 2 || len(tests) != 0 {
		t.Fatalf("%d searches, %d emitted tests unaccounted for", searches, len(tests))
	}
	t.Logf("%d classes (%d at CostInf): %d replayed, %d screened, %d searched",
		len(reps), saturated, st.Replayed, st.Screened, searches)
}
