package constraint

import (
	"sort"
	"testing"

	"olfui/internal/netlist"
	"olfui/internal/testutil"
)

// TestGraphExtendMatchesFresh pins the append-aware graph contract: after
// every Unroller.Extend, extending the existing propagation graph in place
// from AnnotationOrder must yield the same evaluable-gate set, a consistent
// position table and the same per-net consumer sets as rebuilding the graph
// from scratch — the structural equivalence that lets simulators and graders
// stay warm across sweep depths.
func TestGraphExtendMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 3, Gates: 14, FFs: 2, Outputs: 2})
		clone := n.Clone()
		ur, _, err := Apply(clone, Unroll{Frames: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		graph, err := clone.BuildGraph()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for step := 0; step < 2; step++ {
			if err := ur.Extend(); err != nil {
				t.Fatalf("seed %d: extend: %v", seed, err)
			}
			order, _ := ur.AnnotationOrder()
			if err := graph.Extend(clone, order); err != nil {
				t.Fatalf("seed %d: graph extend to %d frames: %v", seed, ur.Frames(), err)
			}
			fresh, err := clone.BuildGraph()
			if err != nil {
				t.Fatalf("seed %d: fresh build: %v", seed, err)
			}
			if got, want := len(graph.Order()), len(fresh.Order()); got != want {
				t.Fatalf("seed %d k=%d: extended order has %d gates, fresh %d",
					seed, ur.Frames(), got, want)
			}
			for i, id := range graph.Order() {
				if graph.Pos(id) != int32(i) {
					t.Fatalf("seed %d k=%d: pos[%d] = %d, want %d",
						seed, ur.Frames(), id, graph.Pos(id), i)
				}
			}
			for net := range clone.Nets {
				a := sortedGates(graph.Consumers(netlist.NetID(net)))
				b := sortedGates(fresh.Consumers(netlist.NetID(net)))
				if len(a) != len(b) {
					t.Fatalf("seed %d k=%d net %d: %d consumers extended, %d fresh",
						seed, ur.Frames(), net, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d k=%d net %d: consumers %v extended vs %v fresh",
							seed, ur.Frames(), net, a, b)
					}
				}
			}
		}
	}
}

func sortedGates(in []netlist.GateID) []netlist.GateID {
	out := append([]netlist.GateID(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
