package sim

import (
	"math/rand"
	"testing"

	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// benchDatapath builds the shared benchmark circuit: a 16-bit ALU-ish
// datapath (adder, subtractor, multiplier slice, barrel shifter, mux tree)
// with a few thousand gates — enough to make levelized evaluation and PPSFP
// grading meaningful.
func benchDatapath(tb testing.TB) *netlist.Netlist {
	n := netlist.New("bench_dp")
	a := dp.InputBus(n, "a", 16)
	b := dp.InputBus(n, "b", 16)
	sel := dp.InputBus(n, "sel", 2)
	cin := n.Input("cin")

	sum, _ := dp.RippleAdder(n, "add", a, b, cin)
	diff, _ := dp.Subtractor(n, "sub", a, b)
	prod := dp.ArrayMultiplier(n, "mul", a, b)
	sh := dp.BarrelShifter(n, "sh", a, dp.Bus{b[0], b[1], b[2], b[3]}, dp.ShiftLeft)
	res := dp.MuxTree(n, "alu", []dp.Bus{sum, diff, prod, sh}, sel)
	dp.OutputBus(n, "res", res)
	if _, err := n.Levelize(); err != nil {
		tb.Fatal(err)
	}
	return n
}

func randomPatterns(n *netlist.Netlist, count int, seed int64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	pis := n.PrimaryInputs()
	ps := make([]Pattern, count)
	for i := range ps {
		p := make(Pattern, len(pis))
		for j := range p {
			p[j] = logic.FromBit(rng.Uint64())
		}
		ps[i] = p
	}
	return ps
}

// BenchmarkEvalComb measures one full levelized 64-way pass over the
// datapath.
func BenchmarkEvalComb(b *testing.B) {
	n := benchDatapath(b)
	s, err := New(n)
	if err != nil {
		b.Fatal(err)
	}
	pis := n.PrimaryInputs()
	rng := rand.New(rand.NewSource(1))
	for _, g := range pis {
		s.SetInput(n.Gates[g].Out, logic.PVFromBits(rng.Uint64()))
	}
	b.ReportMetric(float64(n.NumGates()), "gates")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvalComb()
	}
}

// BenchmarkGradeComb measures PPSFP grading of the full uncollapsed fault
// universe against 64 random patterns.
func BenchmarkGradeComb(b *testing.B) {
	n := benchDatapath(b)
	u := fault.NewUniverse(n)
	patterns := randomPatterns(n, 64, 2)
	var faults []fault.FID
	for i := 0; i < u.NumFaults(); i++ {
		faults = append(faults, fault.FID(i))
	}
	b.ReportMetric(float64(len(faults)), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GradeComb(n, u, patterns, nil, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraderReuse measures the incremental single-pattern grading path
// the ATPG drop loop takes, with simulators reused across calls.
func BenchmarkGraderReuse(b *testing.B) {
	n := benchDatapath(b)
	u := fault.NewUniverse(n)
	gr, err := NewGrader(n, u)
	if err != nil {
		b.Fatal(err)
	}
	patterns := randomPatterns(n, 1, 3)
	var faults []fault.FID
	for i := 0; i < u.NumFaults(); i++ {
		faults = append(faults, fault.FID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr.Grade(patterns, nil, faults)
	}
}

// BenchmarkGraderSparsePattern measures the ATPG drop loop's real shape: one
// PODEM-style pattern with 80% of its inputs at X, graded against every
// fault of the datapath. Few nets settle to a definite value, so the
// definite-net screen, not the cone evaluation, sets the cost.
func BenchmarkGraderSparsePattern(b *testing.B) {
	n := benchDatapath(b)
	u := fault.NewUniverse(n)
	gr, err := NewGrader(n, u)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	p := make(Pattern, len(n.PrimaryInputs()))
	for i := range p {
		p[i] = logic.X
	}
	for _, i := range rng.Perm(len(p))[:len(p)/5] {
		p[i] = logic.FromBit(rng.Uint64())
	}
	patterns := []Pattern{p}
	var faults []fault.FID
	for i := 0; i < u.NumFaults(); i++ {
		faults = append(faults, fault.FID(i))
	}
	dst := fault.NewSet(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Clear()
		gr.GradeInto(dst, patterns, nil, faults)
	}
}
