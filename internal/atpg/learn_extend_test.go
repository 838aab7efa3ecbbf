package atpg

import (
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/testutil"
)

// TestLearningExtendMatchesFresh pins the incremental learning contract
// across k -> k+1 -> k+2: after each Unroller.Extend, Learning.Extend over
// the appended suffix must leave the cache value-identical — same fact count,
// same cantBe(net, v) answer for every net and value — to a fresh
// BuildLearningOn over the extended netlist. This is the invalidation-rule
// soundness check: facts are fanin-determined, and the stale suffix of the
// annotation order is fanout-closed, so recomputing only it is exact.
func TestLearningExtendMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
		clone := n.Clone()
		ur, _, err := constraint.BuildUnroller(clone, []constraint.Transform{constraint.Unroll{Frames: 2}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		graph, err := clone.BuildGraph()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		learn := BuildLearningOn(clone, graph, nil)
		for {
			freshGraph, err := clone.BuildGraph()
			if err != nil {
				t.Fatalf("seed %d k=%d: fresh build: %v", seed, ur.Frames(), err)
			}
			fresh := BuildLearningOn(clone, freshGraph, nil)
			if learn.Facts() != fresh.Facts() {
				t.Fatalf("seed %d k=%d: %d facts extended vs %d fresh",
					seed, ur.Frames(), learn.Facts(), fresh.Facts())
			}
			for net := range clone.Nets {
				for _, v := range []logic.V{logic.Zero, logic.One} {
					if got, want := learn.CantBe(netlist.NetID(net), v), fresh.CantBe(netlist.NetID(net), v); got != want {
						t.Fatalf("seed %d k=%d: cantBe(net %d, %v) = %v extended, %v fresh",
							seed, ur.Frames(), net, v, got, want)
					}
				}
			}
			if ur.Frames() >= 4 {
				break
			}
			if err := ur.Extend(); err != nil {
				t.Fatalf("seed %d: extend: %v", seed, err)
			}
			order, stale := ur.AnnotationOrder()
			if err := graph.Extend(clone, order); err != nil {
				t.Fatalf("seed %d: graph extend to %d frames: %v", seed, ur.Frames(), err)
			}
			if err := learn.Extend(order, stale, nil); err != nil {
				t.Fatalf("seed %d: learning extend to %d frames: %v", seed, ur.Frames(), err)
			}
		}
	}
}
