package constraint

import (
	"context"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// BenchmarkUnrollApply measures the time-expansion transform itself — the
// workload of the preallocated gate/net tables (netlist.Reserve sizes the
// Frames-1 appended copies up front) and the cross-frame reuse of the
// levelization order and net-translation scratch.
func BenchmarkUnrollApply(b *testing.B) {
	n := testutil.RandomNetlist(42, testutil.RandOpts{Inputs: 16, Gates: 1500, FFs: 32, Outputs: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := n.Clone()
		if _, _, err := Apply(clone, Unroll{Frames: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnrollExtend measures the incremental step of the depth sweep:
// extending an already-unrolled clone from 5 to 6 frames plus the
// append-aware annotation update — the per-depth cost the sweep pays.
// Compare against BenchmarkUnrollRebuild at the same final depth.
func BenchmarkUnrollExtend(b *testing.B) {
	n := testutil.RandomNetlist(42, testutil.RandOpts{Inputs: 16, Gates: 1500, FFs: 32, Outputs: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := n.Clone()
		ur, err := NewUnroller(clone, fault.NewSiteMap(), Unroll{Frames: 5})
		if err != nil {
			b.Fatal(err)
		}
		ann, err := clone.Annotate()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ur.Extend(); err != nil {
			b.Fatal(err)
		}
		order, from := ur.AnnotationOrder()
		if _, err := clone.AnnotateAppended(ann, order, from); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnrollRebuild measures the per-depth cost a sweep would pay
// without the incremental builder: rebuild the 6-frame clone from scratch and
// re-annotate it — the matched-depth baseline for BenchmarkUnrollExtend.
func BenchmarkUnrollRebuild(b *testing.B) {
	n := testutil.RandomNetlist(42, testutil.RandOpts{Inputs: 16, Gates: 1500, FFs: 32, Outputs: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := n.Clone()
		if _, _, err := Apply(clone, Unroll{Frames: 6}); err != nil {
			b.Fatal(err)
		}
		if _, err := clone.Annotate(); err != nil {
			b.Fatal(err)
		}
	}
}

// unrolledBench builds one unrolled clone plus everything a multi-site run
// needs: the clone universe, the frame-replica site map and the
// outputs-plus-captures observation set.
func unrolledBench(b *testing.B, o testutil.RandOpts, frames int) (
	*netlist.Netlist, *fault.Universe, *fault.SiteMap, []sim.ObsPoint) {
	b.Helper()
	n := testutil.RandomNetlist(7, o)
	clone := n.Clone()
	_, sm, err := Apply(clone, Unroll{Frames: frames})
	if err != nil {
		b.Fatal(err)
	}
	return clone, fault.NewUniverse(clone), sm, ObserveOutputsAndCaptures(clone)
}

// BenchmarkGradeSeqMultiSite measures fault-parallel grading with every
// fault expanded to its multi-frame injection on a 3-frame unrolled clone.
func BenchmarkGradeSeqMultiSite(b *testing.B) {
	clone, cu, sm, obs := unrolledBench(b,
		testutil.RandOpts{Inputs: 8, Gates: 300, FFs: 8, Outputs: 8}, 3)
	faults := make([]fault.FID, cu.NumFaults())
	for id := range faults {
		faults[id] = fault.FID(id)
	}
	var ins []netlist.NetID
	for _, g := range clone.PrimaryInputs() {
		ins = append(ins, clone.Gate(g).Out)
	}
	cycles := make([][]logic.V, 2)
	for c := range cycles {
		row := make([]logic.V, len(ins))
		for i := range row {
			row[i] = logic.FromBit(uint64(i+c) >> 1)
		}
		cycles[c] = row
	}
	stim := sim.Stimulus{Inputs: ins, Cycles: cycles}
	b.ReportMetric(float64(cu.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.GradeSeq(clone, cu, stim, obs, faults, sm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnrolledATPGMultiSite measures the full multi-site GenerateAll —
// PODEM over joint multi-frame injections with site-map-aware fault dropping
// — on a 3-frame unrolled clone.
func BenchmarkUnrolledATPGMultiSite(b *testing.B) {
	clone, cu, sm, obs := unrolledBench(b,
		testutil.RandOpts{Inputs: 8, Gates: 200, FFs: 8, Outputs: 8}, 3)
	b.ReportMetric(float64(cu.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.GenerateAll(context.Background(), clone, cu,
			atpg.Options{ObsPoints: obs, Sites: sm}); err != nil {
			b.Fatal(err)
		}
	}
}
