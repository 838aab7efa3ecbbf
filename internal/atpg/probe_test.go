package atpg

import (
	"testing"

	"olfui/internal/fault"
	"olfui/internal/testutil"
)

// TestProbeVerdictsMatchScalar is the batched-search identity pin: a search
// with the 64-way probe layer engaged from the first backtrack must prove
// exactly the scalar engine's verdict on every collapsed class — probing
// prunes proven-dead branches and reorders the search, it never changes what
// is provable. It calls Engine.Generate on every class directly, so every
// class goes through the decision loop under test, including the ones
// GenerateAll's screen stage would retire before search.
func TestProbeVerdictsMatchScalar(t *testing.T) {
	run := func(t *testing.T, name string, u *fault.Universe) {
		t.Helper()
		probed, err := New(u.N, Options{ProbeThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := New(u.N, Options{ProbeThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		collapse := fault.NewCollapse(u)
		for id := range u.NumFaults() {
			fid := fault.FID(id)
			if collapse.Rep(fid) != fid {
				continue
			}
			f := u.FaultOf(fid)
			a, b := probed.Generate(f).Verdict, scalar.Generate(f).Verdict
			if a == Aborted || b == Aborted {
				t.Fatalf("%s %s: aborts; identity only holds absent aborts", name, u.Describe(f))
			}
			if a != b {
				t.Errorf("%s %s: %v probed, %v scalar", name, u.Describe(f), a, b)
			}
		}
	}

	run(t, "bench", fault.NewUniverse(benchCircuit(t)))
	for seed := int64(21); seed <= 28; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 18, FFs: 2, Outputs: 2})
		run(t, "random", fault.NewUniverse(n))
	}
}

// TestProbeThresholdResolution pins the Options.ProbeThreshold encoding:
// zero selects the default, negatives disable, positives pass through.
func TestProbeThresholdResolution(t *testing.T) {
	n := benchCircuit(t)
	for _, tc := range []struct {
		opt  int
		want int
	}{
		{0, DefaultProbeThreshold},
		{-1, -1},
		{1, 1},
		{100, 100},
	} {
		e, err := New(n, Options{ProbeThreshold: tc.opt})
		if err != nil {
			t.Fatal(err)
		}
		if e.probeAfter != tc.want {
			t.Errorf("ProbeThreshold %d resolved to %d, want %d", tc.opt, e.probeAfter, tc.want)
		}
	}
}
