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

// TestCampaignEnginePins pins whole single-worker campaigns on the bench
// design: the classification digest, the search-work counters and the drop
// side. With one worker the campaign is deterministic, so any change to the
// PODEM engine that alters a verdict, a pattern (which changes what fault
// dropping removes) or the search trajectory (backtracks, decisions,
// implication passes) shows up here. Speedups to the engine must keep all
// four equal. The gate-evaluation count is pinned too: it is the engine's
// work, and it repeats exactly run to run; a change that alters it should say
// why. The emitted-test and simulation-drop counts pin GenerateAll's test
// completion: a different completion of the same searches' tests drops
// other classes, which moves both counts and, through the searches it
// spares, the decision, implication and gate-evaluation counts too.
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
			backtracks: 28, decisions: 1190, implications: 1700,
			gateEvals: 37477, patterns: 150, simDropped: 2262,
		},
		{
			// A swept campaign: olfui -width 16 -limit 64 -sweep -max-frames 4
			// -workers 1.
			name: "swept", width: 16, limit: 64, maxFrames: 4,
			digest:     "ffbeb3aff1682ecc15aabe9af1cb83f0cfd638e097ac9cbfcf1423be9fcee052",
			backtracks: 28, decisions: 1929, implications: 2758,
			gateEvals: 97900, patterns: 213, simDropped: 5758,
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
