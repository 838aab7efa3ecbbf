package atpg

import (
	"context"
	"testing"

	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/netlist"
)

// benchCircuit builds a 16-bit adder/subtractor/mux datapath for the ATPG
// benchmarks.
func benchCircuit(tb testing.TB) *netlist.Netlist {
	n := netlist.New("bench_atpg")
	a := dp.InputBus(n, "a", 16)
	b := dp.InputBus(n, "b", 16)
	sel := n.Input("sel")
	cin := n.Input("cin")
	sum, cout := dp.RippleAdder(n, "add", a, b, cin)
	diff, _ := dp.Subtractor(n, "sub", a, b)
	res := dp.Mux2Bus(n, "rmux", sum, diff, sel)
	dp.OutputBus(n, "res", res)
	n.OutputPort("cout", cout)
	if _, err := n.Levelize(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkGenerateSingle measures the single-fault PODEM core on a
// deep-carry-chain fault (the carry-out cone), the hardest single target in
// the circuit.
func BenchmarkGenerateSingle(b *testing.B) {
	n := benchCircuit(b)
	u := fault.NewUniverse(n)
	e, err := New(n, Options{})
	if err != nil {
		b.Fatal(err)
	}
	coutGate, ok := n.GateByName("cout")
	if !ok {
		b.Fatal("no cout gate")
	}
	f := u.FaultOf(u.GateFaults(coutGate)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := e.Generate(f); r.Verdict != Detected {
			b.Fatalf("verdict %v", r.Verdict)
		}
	}
}

// BenchmarkGenerateAll measures the full driver — collapse, screen, PODEM,
// fault dropping at dispatch — over the whole universe.
func BenchmarkGenerateAll(b *testing.B) {
	n := benchCircuit(b)
	u := fault.NewUniverse(n)
	b.ReportMetric(float64(u.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := GenerateAll(context.Background(), n, u, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.Aborted != 0 {
			b.Fatalf("%d aborted", out.Stats.Aborted)
		}
	}
}
