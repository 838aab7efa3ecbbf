package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// TestDetectsMatchesGrade pins the grader's test store: after AddTest has
// stored tests, Detects(fid, k) must equal Grade(tests[k:], ...).Has(fid)
// for every fault and every start index k. It stores 150 tests, so three
// words are open and starts fall inside each of them, on two kinds of case:
// a random netlist unrolled to two frames with its replica site map, and a
// random netlist whose flip-flop state the tests drive, under a random site
// map. Observation is a random subset of the full-scan points (on the
// unrolled clone, its outputs and capture probes) plus two gate input pins,
// and about one row entry in five is X. The store is then reset and refilled
// with 70 other tests, which must reuse its words, and the unrolled clone is
// extended to three frames (Grader.Extend) and the store filled once more,
// on words regrown to the larger net count. The test fails unless some
// fault's answer changes with k, so a check that ignores the start index
// cannot pass it.
func TestDetectsMatchesGrade(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hits, misses, changes := 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, unroll := range []bool{true, false} {
			n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 5, Gates: 24, FFs: 3, Outputs: 2})
			sm := fault.NewSiteMap()
			full := sim.CombObsPoints(n)
			var ur *constraint.Unroller
			if unroll {
				var err error
				if ur, err = constraint.NewUnroller(n, sm, constraint.Unroll{Frames: 2}); err != nil {
					t.Fatal(err)
				}
				full = constraint.ObserveOutputsAndCaptures(n)
			} else {
				sm = randomSiteMap(rng, n)
			}
			pts := testutil.ObsWithGatePins(rng, n, full)
			u := fault.NewUniverse(n)
			gr, err := sim.NewGraderSites(n, u, pts, sm)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			gr.Instrument(reg)
			faults := allFaults(u)
			counts := []int{150, 70}
			if unroll {
				counts = append(counts, 100)
			}
			for round, count := range counts {
				what := fmt.Sprintf("seed %d unroll %v round %d", seed, unroll, round)
				if round == 2 {
					if err := ur.Extend(); err != nil {
						t.Fatal(err)
					}
					order, _ := ur.AnnotationOrder()
					if err := gr.Extend(order); err != nil {
						t.Fatal(err)
					}
				}
				ref, err := sim.NewGraderSites(n, u, pts, sm)
				if err != nil {
					t.Fatal(err)
				}
				patterns := make([]sim.Pattern, count)
				var states []sim.Pattern
				if len(n.FlipFlops()) > 0 {
					states = make([]sim.Pattern, count)
				}
				gr.ResetTests()
				for i := range patterns {
					patterns[i] = mostlyKnown(rng, len(n.PrimaryInputs()))
					var state sim.Pattern
					if states != nil {
						states[i] = mostlyKnown(rng, len(n.FlipFlops()))
						state = states[i]
					}
					gr.AddTest(patterns[i], state)
				}
				if gr.Tests() != count {
					t.Fatalf("%s: the store holds %d tests, want %d", what, gr.Tests(), count)
				}
				for k := 0; k <= count; k++ {
					var st []sim.Pattern
					if states != nil {
						st = states[k:]
					}
					want := ref.Grade(patterns[k:], st, faults)
					for _, fid := range faults {
						got := gr.Detects(fid, k)
						if got != want.Has(fid) {
							t.Fatalf("%s: Detects(%s, %d) = %v, grading tests[%d:] says %v",
								what, u.Describe(u.FaultOf(fid)), k, got, k, want.Has(fid))
						}
						if got {
							hits++
						} else {
							misses++
						}
						if k > 0 && got != gr.Detects(fid, k-1) {
							changes++
						}
					}
				}
			}
			if reg.Snapshot().Counter("sim.grade.words") == 0 {
				t.Fatalf("seed %d unroll %v: AddTest settled no word", seed, unroll)
			}
		}
	}
	if hits == 0 || misses == 0 || changes == 0 {
		t.Fatalf("degenerate: %d hits, %d misses, %d answers that change with k", hits, misses, changes)
	}
	t.Logf("%d hits, %d misses, %d answers that change with k", hits, misses, changes)
}
