package atpg

import (
	"testing"

	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// deselectAdderBits is the adder width of the scan-mux circuits below. The
// engine without the deselected-pin rule aborts every targeted fault of
// TestDeselectedMuxPinUntestable at limit 256: it justifies the adder's sum
// MSB on the selected pin, every way of doing so closes the D-frontier, and
// the search enumerates the ripple-carry cone.
const deselectAdderBits = 6

// scanMux builds the bench design's scan-mux shape in isolation: a 2:1 mux,
// observed at a primary output, whose select is a tie cell "scan_en" of value
// sel. The data pin the select picks carries the sum MSB of a k-bit ripple
// adder over free inputs; the other data pin carries the net other builds.
// It returns the netlist and the mux gate.
func scanMux(t testing.TB, k int, sel logic.V, other func(n *netlist.Netlist) netlist.NetID) (*netlist.Netlist, netlist.GateID) {
	t.Helper()
	n := netlist.New("scanmux")
	a := dp.InputBus(n, "a", k)
	b := dp.InputBus(n, "b", k)
	sum, _ := dp.RippleAdder(n, "add", a, b, n.Input("cin"))
	if sel == logic.One {
		n.Mux2("smux", other(n), sum[k-1], n.Tie1("scan_en"))
	} else {
		n.Mux2("smux", sum[k-1], other(n), n.Tie0("scan_en"))
	}
	out, _ := n.NetByName("smux")
	n.OutputPort("out", out)
	if _, err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	mux, _ := n.GateByName("smux")
	return n, mux
}

// freeInput makes scanMux's other data pin a primary input "x".
func freeInput(n *netlist.Netlist) netlist.NetID { return n.Input("x") }

// checkDeselectCircuit pins the engine to the reference on every fault of
// n's universe u and re-proves every verdict with the exhaustive oracle.
func checkDeselectCircuit(t *testing.T, n *netlist.Netlist, u *fault.Universe, limit int) {
	t.Helper()
	CheckReference(t, n, u, Options{BacktrackLimit: limit})
	e, err := New(n, Options{BacktrackLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	o, err := testutil.NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < u.NumFaults(); id++ {
		f := u.FaultOf(fault.FID(id))
		r := e.Generate(f)
		det, _ := o.Detectable(f)
		if r.Verdict == Aborted || det != (r.Verdict == Detected) {
			t.Errorf("%s: %v, oracle detectable=%v", u.Describe(f), r.Verdict, det)
		}
	}
}

// TestDeselectedMuxPinUntestable pins the deselected-pin rule on the bench's
// scan-mux shape: with the select tied, a stuck-at on the data pin the select
// never picks is proven Untestable at the first implication pass, instead of
// the engine enumerating the adder behind the selected pin. The cases cover
// each place the rule applies: an inactive pin site (sitePathOpenAt), a site
// upstream whose only path runs through the deselected pin (xPathFrom), and a
// pin site a tie activates before any decision (computeFrontier).
//
// Without the rule, at limit 256, every targeted fault below ends Aborted
// after 257 backtracks.
func TestDeselectedMuxPinUntestable(t *testing.T) {
	and := func(n *netlist.Netlist) netlist.NetID { return n.And("g", n.Input("x"), n.Input("y")) }
	tie := func(n *netlist.Netlist) netlist.NetID { return n.Tie1("one") }
	for _, tc := range []struct {
		name  string
		sel   logic.V
		other func(*netlist.Netlist) netlist.NetID
		// site returns the targeted sites: the deselected pin, or gates
		// whose only path to the output runs through it.
		site func(n *netlist.Netlist, mux netlist.GateID) []fault.Site
	}{
		{"D1 pin, select tied to 0", logic.Zero, freeInput, func(_ *netlist.Netlist, mux netlist.GateID) []fault.Site {
			return []fault.Site{{Gate: mux, Pin: netlist.MuxD1}}
		}},
		{"D0 pin, select tied to 1", logic.One, freeInput, func(_ *netlist.Netlist, mux netlist.GateID) []fault.Site {
			return []fault.Site{{Gate: mux, Pin: netlist.MuxD0}}
		}},
		{"X-path through the D1 pin", logic.Zero, and, func(n *netlist.Netlist, _ netlist.GateID) []fault.Site {
			g, _ := n.GateByName("g")
			x, _ := n.GateByName("x")
			return []fault.Site{{Gate: g, Pin: fault.OutputPin}, {Gate: g, Pin: 1}, {Gate: x, Pin: fault.OutputPin}}
		}},
		{"D1 pin active from a tie", logic.Zero, tie, func(_ *netlist.Netlist, mux netlist.GateID) []fault.Site {
			return []fault.Site{{Gate: mux, Pin: netlist.MuxD1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, mux := scanMux(t, deselectAdderBits, tc.sel, tc.other)
			u := fault.NewUniverse(n)
			e, err := New(n, Options{BacktrackLimit: 256})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.site(n, mux) {
				for _, sa := range []logic.V{logic.Zero, logic.One} {
					f := fault.Fault{Site: s, SA: sa}
					if r := e.Generate(f); r.Verdict != Untestable || r.Backtracks != 0 {
						t.Errorf("%s: %v after %d backtracks, want untestable after 0",
							u.Describe(f), r.Verdict, r.Backtracks)
					}
				}
			}
			checkDeselectCircuit(t, n, u, 256)
		})
	}
}

// TestDeselectedRuleNeedsEqualSelect is the rule's negative case: a joint
// injection with one site on the D1 pin and one on the tie driving the
// select. At stuck-at-1 the faulty select picks D1 while the good one picks
// D0, so the select is not equal in both machines and must not block; the
// search finds the test. At stuck-at-0 the tie site never diverges, and the
// pin is blocked as in the single-site case. Both verdicts must match the
// exhaustive oracle and the reference engine.
func TestDeselectedRuleNeedsEqualSelect(t *testing.T) {
	n, mux := scanMux(t, deselectAdderBits, logic.Zero, freeInput)
	sel, _ := n.GateByName("scan_en")
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	o, err := testutil.NewOracle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range []logic.V{logic.Zero, logic.One} {
		inj := fault.Injection{
			Sites: []fault.Site{{Gate: mux, Pin: netlist.MuxD1}, {Gate: sel, Pin: fault.OutputPin}},
			SA:    sa,
		}
		opts := Options{BacktrackLimit: 256}
		got := NewWithAnnotations(n, ann, opts).GenerateInjection(inj)
		ref := &refEngine{Engine: NewWithAnnotations(n, ann, opts), obs: sim.CombObsPoints(n)}
		if d := diffResults(got, ref.refGenerateInjection(inj)); d != "" {
			t.Errorf("s-a-%v: %s", sa, d)
		}
		det, _ := o.DetectableInjection(inj)
		want := Untestable
		if det {
			want = Detected
		}
		if got.Verdict != want {
			t.Errorf("s-a-%v: %v, oracle says %v", sa, got.Verdict, want)
		}
		if sa == logic.One && !det {
			t.Fatal("the oracle finds no test for the stuck-at-1 joint injection; the case lost its subject")
		}
	}
}
