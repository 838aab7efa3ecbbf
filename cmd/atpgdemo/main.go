// Command atpgdemo exercises the ATPG subsystem end-to-end as a library
// consumer: build a datapath with a planted redundancy, run GenerateAll,
// cross-check every verdict with the independent fault simulator. It exits
// non-zero on any mismatch so CI can run it as a smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"olfui/internal/atpg"
	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

func main() {
	limit := flag.Int("limit", 0, "backtrack limit (0 = default)")
	width := flag.Int("width", 8, "datapath width (at least 1)")
	flag.Parse()

	if err := run(os.Stdout, *limit, *width); err != nil {
		fmt.Fprintln(os.Stderr, "atpgdemo:", err)
		os.Exit(1)
	}
}

// run builds the demo design at the given datapath width, runs GenerateAll
// with the given backtrack limit, and writes the cross-check report to w. It
// refuses a width below 1 before building anything.
func run(w io.Writer, limit, width int) error {
	if width < 1 {
		return fmt.Errorf("-width must be >= 1, got %d", width)
	}
	n := netlist.New("demo")
	a := dp.InputBus(n, "a", width)
	b := dp.InputBus(n, "b", width)
	sel := n.Input("sel")
	cin := n.Input("cin")
	sum, cout := dp.RippleAdder(n, "add", a, b, cin)
	diff, _ := dp.Subtractor(n, "sub", a, b) // dropped carry: unobservable cone
	res := dp.Mux2Bus(n, "rmux", sum, diff, sel)
	dp.OutputBus(n, "res", res)
	n.OutputPort("cout", cout)

	// Planted redundancy: y = s·c0 + s̄·c1 + c0·c1 (consensus term u3).
	s := n.Input("s")
	c0 := n.Input("c0")
	c1 := n.Input("c1")
	ns := n.Not("ns", s)
	u1 := n.And("u1", s, c0)
	u2 := n.And("u2", ns, c1)
	u3 := n.And("u3", c0, c1)
	y2 := n.Or("y2", u1, u2, u3)
	n.OutputPort("po2", y2)

	fmt.Fprintln(w, n.CollectStats())
	u := fault.NewUniverse(n)

	out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{BacktrackLimit: limit})
	if err != nil {
		return fmt.Errorf("GenerateAll: %w", err)
	}
	fmt.Fprintln(w, "atpg:", out.Stats)

	counts := out.Status.Counts()
	fmt.Fprintf(w, "universe: %d detected, %d untestable, %d aborted, %d undetected\n",
		counts[fault.Detected], counts[fault.Untestable], counts[fault.Aborted], counts[fault.Undetected])
	if counts[fault.Undetected] != 0 {
		return fmt.Errorf("%d faults left undetected: GenerateAll must classify everything", counts[fault.Undetected])
	}

	// Independent confirmation of the whole classification with the
	// PPSFP fault simulator.
	det := out.Status.FaultsWith(fault.Detected)
	simDet, err := sim.GradeComb(n, u, out.Patterns, out.States, det)
	if err != nil {
		return fmt.Errorf("GradeComb: %w", err)
	}
	fmt.Fprintf(w, "confirmation: test set detects %d / %d detected-classified faults\n",
		simDet.Count(), len(det))
	if simDet.Count() != len(det) {
		return fmt.Errorf("test set misses %d detected-classified faults", len(det)-simDet.Count())
	}

	unt := out.Status.FaultsWith(fault.Untestable)
	simUnt, err := sim.GradeComb(n, u, out.Patterns, out.States, unt)
	if err != nil {
		return fmt.Errorf("GradeComb: %w", err)
	}
	fmt.Fprintf(w, "confirmation: test set detects %d / %d untestable-classified faults (want 0)\n",
		simUnt.Count(), len(unt))
	if simUnt.Count() != 0 {
		return fmt.Errorf("test set detects %d untestable-classified faults", simUnt.Count())
	}

	u3g, ok := n.GateByName("u3")
	if !ok {
		return fmt.Errorf("planted gate u3 missing")
	}
	rid := u.IDOf(fault.Fault{Site: fault.Site{Gate: u3g, Pin: fault.OutputPin}, SA: logic.Zero})
	fmt.Fprintf(w, "planted redundant fault %s: %v\n", u.Describe(u.FaultOf(rid)), out.Status.Get(rid))
	// Detecting the redundancy is a soundness bug at any budget; the full
	// untestability proof is only owed at the default backtrack limit (a
	// starved -limit run may legitimately abort it).
	switch got := out.Status.Get(rid); {
	case got == fault.Detected:
		return fmt.Errorf("planted redundant fault classified detected")
	case limit == 0 && got != fault.Untestable:
		return fmt.Errorf("planted redundant fault classified %v, want untestable", got)
	}

	fmt.Fprintln(w, "OK")
	return nil
}
