package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// screenCase checks Grader.Screen on one generated case and returns how many
// faults each rule retired. The clone is a random netlist from netSeed whose
// primary input i is tied to i%2 through constraint.Tie when bit i of tied
// is set, and, with unroll, unrolled to two frames with the replica site
// map. Observation follows obsChoice: full scan (on an unrolled clone, its
// outputs and capture probes), the outputs only, or a random subset of the
// full-scan points, drawn from obsSeed, plus two random gate input pins.
// Every fault the screen retires must be undetectable by the exhaustive
// oracle under its joint injection, and the screen must keep every other
// fault, in order.
func screenCase(t *testing.T, netSeed int64, tied uint8, unroll bool, obsSeed int64, obsChoice uint8) map[sim.ScreenRule]int {
	t.Helper()
	n := testutil.RandomNetlist(netSeed, testutil.RandOpts{Inputs: 5, Gates: 20, FFs: 3, Outputs: 2})
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
	what := fmt.Sprintf("net %d, tied %#x, unroll %v, obs %d/%d", netSeed, tied, unroll, obsChoice%3, obsSeed)

	u := fault.NewUniverse(n)
	grader, err := sim.NewGraderSites(n, u, pts, sm)
	if err != nil {
		t.Fatal(err)
	}
	o, err := testutil.NewOracle(n, pts)
	if err != nil {
		t.Fatal(err)
	}
	faults := make([]fault.FID, u.NumFaults())
	for id := range faults {
		faults[id] = fault.FID(id)
	}
	want := slices.Clone(faults)
	rules := map[sim.ScreenRule]int{}
	var retired []fault.FID
	kept := grader.Screen(faults, func(fid fault.FID, rule sim.ScreenRule) {
		rules[rule]++
		retired = append(retired, fid)
		inj := sm.Expand(u.FaultOf(fid))
		if detectable, w := o.DetectableInjection(inj); detectable {
			t.Errorf("%s: rule %d retires %s, which the oracle detects with %v",
				what, rule, u.Describe(u.FaultOf(fid)), w)
		}
	})
	want = slices.DeleteFunc(want, func(fid fault.FID) bool { return slices.Contains(retired, fid) })
	if !slices.Equal(kept, want) {
		t.Errorf("%s: the screen keeps %v, want the %d faults it did not retire, in order", what, kept, len(want))
	}
	return rules
}

// TestScreenSoundOracle is the screen's soundness property test: over
// generated clones with and without tied inputs and replica site maps,
// under full-scan, output-only and random observation, every fault either
// rule retires is undetectable by the exhaustive oracle. It fails if either
// rule never fires, so a screen that lost a rule cannot pass it.
func TestScreenSoundOracle(t *testing.T) {
	total := map[sim.ScreenRule]int{}
	for netSeed := int64(1); netSeed <= 6; netSeed++ {
		for _, unroll := range []bool{false, true} {
			for obs := uint8(0); obs < 3; obs++ {
				tied := uint8(netSeed * 11)
				for rule, k := range screenCase(t, netSeed, tied, unroll, netSeed+int64(obs), obs) {
					total[rule] += k
				}
			}
		}
	}
	if total[sim.ScreenConstant] == 0 || total[sim.ScreenUnobservable] == 0 {
		t.Fatalf("retired %d constant and %d unobservable faults; both rules must fire",
			total[sim.ScreenConstant], total[sim.ScreenUnobservable])
	}
	t.Logf("retired %d constant and %d unobservable faults",
		total[sim.ScreenConstant], total[sim.ScreenUnobservable])
}

// FuzzScreen is screenCase over generated cases. The seed corpus in
// testdata/fuzz/FuzzScreen holds one case per observation choice, with and
// without an unroll.
func FuzzScreen(f *testing.F) {
	f.Fuzz(func(t *testing.T, netSeed int64, tied uint8, unroll bool, obsSeed int64, obsChoice uint8) {
		screenCase(t, netSeed, tied, unroll, obsSeed, obsChoice)
	})
}
