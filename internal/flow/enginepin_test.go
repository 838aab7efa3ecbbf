package flow_test

import (
	"context"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/obs"
)

// TestCampaignEnginePins pins whole one-worker campaigns on the bench
// design: the classification digest, the search-work counters and the drop
// side. A campaign is deterministic at every worker budget
// (TestSchedulerInvariance), so any change to the
// PODEM engine that alters a verdict, a pattern (which changes what fault
// dropping removes) or the search trajectory (backtracks, decisions,
// implication passes) shows up here. Speedups to the engine must keep all
// four equal. The gate-evaluation count is pinned too: it is the engine's
// work, and it repeats exactly run to run; a change that alters it should say
// why. The emitted-test and simulation-drop counts pin GenerateAll's test
// completion and the warm start: a different completion of the same
// searches' tests, or of the baseline's tests lifted onto a scenario clone,
// drops other classes, which moves both counts and, through the searches it
// spares, the decision, implication and gate-evaluation counts too. The
// emitted-test count includes the baseline rows that join each scenario's
// test set.
//
// The implication and gate-evaluation pins were re-derived when the screen
// stage (sim.Grader.Screen) replaced the learning screen: it also retires
// the classes with no combinational path to an observation point, which
// were searched before and proved Untestable without a decision. Those
// searches' implication passes and gate evaluations are gone (abort-tail
// 1057 to 763 and 22665 to 20361, swept 1645 to 1127 and 55773 to 51165);
// the digest, backtracks, decisions, tests and drops did not move.
func TestCampaignEnginePins(t *testing.T) {
	for _, tc := range []struct {
		name      string
		width     int
		limit     int
		maxFrames int
		digest    string
		backtracks,
		decisions,
		implications,
		gateEvals,
		patterns,
		simDropped int64
	}{
		{
			// The abort-tail benchmark workload: olfui -workers 1 -limit 2048.
			name: "abort-tail", width: 8, limit: 2048,
			digest:     "e59a36a9b3327741bb253b91a4ab448f54ff49be02a8de03f0f760bc319d13d2",
			backtracks: 28, decisions: 626, implications: 763,
			gateEvals: 20361, patterns: 194, simDropped: 2341,
		},
		{
			// A swept campaign: olfui -width 16 -limit 64 -sweep -max-frames 4
			// -workers 1.
			name: "swept", width: 16, limit: 64, maxFrames: 4,
			digest:     "ffbeb3aff1682ecc15aabe9af1cb83f0cfd638e097ac9cbfcf1423be9fcee052",
			backtracks: 28, decisions: 932, implications: 1127,
			gateEvals: 51165, patterns: 317, simDropped: 5874,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := bench.Build(tc.width)
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			r, err := flow.RunCampaign(context.Background(), n, fault.NewUniverse(n), bench.Scenarios(2), flow.Options{
				ATPG:      atpg.Options{BacktrackLimit: tc.limit},
				Workers:   1,
				MaxFrames: tc.maxFrames,
				Metrics:   reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.ClassDigest(); got != tc.digest {
				t.Errorf("class digest %s, want %s", got, tc.digest)
			}
			snap := reg.Snapshot()
			for name, want := range map[string]int64{
				"atpg.backtracks":          tc.backtracks,
				"atpg.decisions":           tc.decisions,
				"atpg.implications":        tc.implications,
				"atpg.gate_evals":          tc.gateEvals,
				"atpg.patterns":            tc.patterns,
				"atpg.classes.sim_dropped": tc.simDropped,
			} {
				if got := snap.Counter(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}
