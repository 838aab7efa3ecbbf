package atpg_test

import (
	"context"
	"fmt"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/constraint"
	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// benchClone builds the mission clone of sc over the width-8 bench design,
// as a campaign's scenario provider does: the constrained clone, its
// replica site map and its observation points.
func benchClone(t testing.TB, sc flow.Scenario) (*netlist.Netlist, *fault.SiteMap, []sim.ObsPoint) {
	t.Helper()
	clone := bench.Build(8)
	_, sm, err := constraint.Apply(clone, sc.Transforms...)
	if err != nil {
		t.Fatal(err)
	}
	return clone, sm, sc.Observe(clone)
}

// adderMiter builds a miter of two k-bit ripple adders over the same inputs:
// the XOR of their sum MSBs, observed at a primary output "miter". The XOR
// is 0 under every assignment, so its stuck-at-0 is untestable, and so is a
// stuck-at on any input stem, which both adders read alike. Neither
// implication nor a cheap structural argument shows that: PODEM enumerates
// both carry chains. At k = 8, 11 of the 356 classes end Aborted at limit
// 2048, and the default limit resolves them all.
func adderMiter(t testing.TB, k int) *netlist.Netlist {
	t.Helper()
	n := netlist.New("miter")
	a := dp.InputBus(n, "a", k)
	b := dp.InputBus(n, "b", k)
	cin := n.Input("cin")
	s1, _ := dp.RippleAdder(n, "add1", a, b, cin)
	s2, _ := dp.RippleAdder(n, "add2", a, b, cin)
	n.OutputPort("out", n.Xor("miter", s1[k-1], s2[k-1]))
	if _, err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestConeSearchMatchesReferenceOnBench pins every search on the bench
// design's mission clones — the scenarios the campaign benchmark runs, at 2
// and 3 unrolled frames — to the full-pass reference engine, at the
// benchmark's backtrack limit. The deselected-pin rule settles the bench's
// scan-mux faults at their first implication pass, so these clones backtrack
// only a few times each; the 8-bit adder miter is the configuration that
// drives the cone and the event-driven passes through thousands of
// backtracks per search.
func TestConeSearchMatchesReferenceOnBench(t *testing.T) {
	miter := adderMiter(t, 8)
	mu := fault.NewUniverse(miter)
	t.Run("adder-miter", func(t *testing.T) {
		t.Parallel()
		s, b := atpg.CheckReference(t, miter, mu, atpg.Options{BacktrackLimit: 2048})
		if b < 2048 {
			t.Fatalf("%d backtracks over %d searches; the miter no longer searches deep", b, s)
		}
		t.Logf("%d searches, %d backtracks matched the reference", s, b)
	})
	done := map[string]bool{}
	for _, frames := range []int{2, 3} {
		for _, sc := range bench.Scenarios(frames) {
			var key string
			for _, tr := range sc.Transforms {
				key += tr.Describe() + " "
			}
			if done[key] { // scenarios without an unroll do not depend on frames
				continue
			}
			done[key] = true
			clone, sm, obs := benchClone(t, sc)
			u := fault.NewUniverse(clone)
			t.Run(fmt.Sprintf("%s/frames=%d", sc.Name, frames), func(t *testing.T) {
				t.Parallel()
				s, b := atpg.CheckReference(t, clone, u, atpg.Options{
					BacktrackLimit: 2048,
					Sites:          sm,
					ObsPoints:      obs,
				})
				t.Logf("%d searches, %d backtracks matched the reference", s, b)
			})
		}
	}
}

// generateMiter runs GenerateAll over every class of the 8-bit
// adder miter at the default backtrack limit.
func generateMiter(tb testing.TB, n *netlist.Netlist, u *fault.Universe) *atpg.Outcome {
	tb.Helper()
	out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestGenerateAdderMiterMatchesOracle checks the verdicts of searches
// thousands of backtracks deep against checkers that share no search code
// with the engine. At the default limit the 8-bit adder miter resolves every
// class, and its 17 inputs are within the exhaustive oracle's reach: the
// oracle re-proves every Untestable verdict, and the PPSFP grader confirms
// that the emitted tests detect every Detected fault.
func TestGenerateAdderMiterMatchesOracle(t *testing.T) {
	miter := adderMiter(t, 8)
	u := fault.NewUniverse(miter)
	out := generateMiter(t, miter, u)
	st := out.Stats
	if st.Classes != 356 || st.Detected != 221 || st.Untestable != 135 || st.Aborted != 0 {
		t.Fatalf("%d classes: %d detected, %d untestable, %d aborted; want 356: 221, 135, 0",
			st.Classes, st.Detected, st.Untestable, st.Aborted)
	}
	if st.Backtracks < atpg.DefaultBacktrackLimit {
		t.Fatalf("%d backtracks; the miter no longer searches deep", st.Backtracks)
	}
	if err := testutil.VerifyUntestable(u, out.Status, nil); err != nil {
		t.Fatal(err)
	}
	detected := out.Status.FaultsWith(fault.Detected)
	det, err := sim.GradeComb(miter, u, out.Patterns, out.States, detected)
	if err != nil {
		t.Fatal(err)
	}
	if det.Count() != len(detected) {
		t.Fatalf("the %d emitted tests detect %d of %d Detected faults", len(out.Patterns), det.Count(), len(detected))
	}
	t.Logf("%d backtracks; %d untestable and %d detected faults confirmed",
		st.Backtracks, len(out.Status.FaultsWith(fault.Untestable)), len(detected))
}

// BenchmarkGenerateAdderMiter times the GenerateAll that
// TestGenerateAdderMiterMatchesOracle checks: the deep-search workload, whose
// searches run thousands of backtracks each.
func BenchmarkGenerateAdderMiter(b *testing.B) {
	miter := adderMiter(b, 8)
	u := fault.NewUniverse(miter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := generateMiter(b, miter, u); out.Stats.Aborted != 0 {
			b.Fatalf("%d aborted", out.Stats.Aborted)
		}
	}
}

// TestSearchAllocsIndependentOfSteps pins that a decision step allocates
// nothing: one Aborted search of the 8-bit adder miter must allocate the
// same number of times whether it stops at 256 backtracks or runs on to
// 2048. Whatever a search allocates, it allocates once, up front.
func TestSearchAllocsIndependentOfSteps(t *testing.T) {
	miter := adderMiter(t, 8)
	ann, err := miter.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	engine := func(limit int) *atpg.Engine {
		return atpg.NewWithAnnotations(miter, ann, atpg.Options{BacktrackLimit: limit})
	}
	u := fault.NewUniverse(miter)
	long := engine(2048)
	var target fault.Fault
	found := false
	for id := 0; id < u.NumFaults() && !found; id++ {
		target = u.FaultOf(fault.FID(id))
		found = long.Generate(target).Verdict == atpg.Aborted
	}
	if !found {
		t.Fatal("no fault of the adder miter aborts at limit 2048")
	}
	allocs := func(limit int) float64 {
		e := engine(limit)
		if r := e.Generate(target); r.Verdict != atpg.Aborted || r.Backtracks != limit+1 {
			t.Fatalf("limit %d: %v after %d backtracks, want aborted after %d",
				limit, r.Verdict, r.Backtracks, limit+1)
		}
		return testing.AllocsPerRun(3, func() { e.Generate(target) })
	}
	short, full := allocs(256), allocs(2048)
	if short != full {
		t.Fatalf("%s: %v allocations at limit 256, %v at limit 2048; a decision step allocates",
			u.Describe(target), short, full)
	}
	t.Logf("%s: %v allocations per search at either limit", u.Describe(target), full)
}
