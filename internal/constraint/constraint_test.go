package constraint

import (
	"context"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// scanCell builds the paper's Fig. 2 structure: a scan mux in front of a
// flip-flop whose output drives a primary output.
func scanCell(t *testing.T) (*netlist.Netlist, netlist.GateID) {
	t.Helper()
	n := netlist.New("scancell")
	d := n.Input("d")
	si := n.Input("scan_in")
	se := n.Input("scan_en")
	m := n.Mux2("scan_mux", d, si, se)
	q := n.DFF("q", m)
	n.OutputPort("po", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	mg, _ := n.GateByName("scan_mux")
	return n, mg
}

func TestTieScanEnableMakesScanPathUntestable(t *testing.T) {
	n, mux := scanCell(t)
	u := fault.NewUniverse(n)
	// Full scan: the scan-data pin of the mux is testable (set scan_en=1).
	d1sa0 := u.IDOf(fault.Fault{Site: fault.Site{Gate: mux, Pin: netlist.MuxD1}, SA: logic.Zero})
	out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Status.Get(d1sa0); got != fault.Detected {
		t.Fatalf("full-scan scan_mux/D1 s-a-0: %v, want detected", got)
	}

	// Mission mode: scan_en and scan_in both tied to 0.
	c := n.Clone()
	if _, _, err := Apply(c, Tie{Net: "scan_en", Value: logic.Zero}, Tie{Net: "scan_in", Value: logic.Zero}); err != nil {
		t.Fatal(err)
	}
	cu := fault.NewUniverse(c)
	cout, err := atpg.GenerateAll(context.Background(), c, cu, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []fault.Fault{
		{Site: fault.Site{Gate: mux, Pin: netlist.MuxD1}, SA: logic.Zero},
		{Site: fault.Site{Gate: mux, Pin: netlist.MuxD1}, SA: logic.One},
	} {
		id := cu.IDOf(f)
		if id == fault.InvalidFID {
			t.Fatalf("fault %v missing from clone universe", f)
		}
		if got := cout.Status.Get(id); got != fault.Untestable {
			t.Errorf("mission %s: %v, want untestable", cu.Describe(f), got)
		}
	}
	// A stuck-open scan enable corrupts mission behavior (it steers the mux
	// to the dead scan leg), so it stays functionally testable — as does
	// the functional data path.
	for _, f := range []fault.Fault{
		{Site: fault.Site{Gate: mux, Pin: netlist.MuxS}, SA: logic.One},
		{Site: fault.Site{Gate: mux, Pin: netlist.MuxD0}, SA: logic.Zero},
	} {
		if got := cout.Status.Get(cu.IDOf(f)); got != fault.Detected {
			t.Errorf("mission %s: %v, want detected", cu.Describe(f), got)
		}
	}
}

func TestTiePreservesIdentityContract(t *testing.T) {
	n, mux := scanCell(t)
	u := fault.NewUniverse(n)
	c := n.Clone()
	if _, _, err := Apply(c, Tie{Net: "scan_en", Value: logic.Zero}); err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) <= len(n.Gates) {
		t.Fatal("tie should append a synthetic gate")
	}
	// Synthetic gates contribute no faults; shared sites keep their IDs
	// translatable in both directions.
	cu := fault.NewUniverse(c)
	f := fault.Fault{Site: fault.Site{Gate: mux, Pin: netlist.MuxD0}, SA: logic.One}
	if u.IDOf(f) == fault.InvalidFID || cu.IDOf(f) == fault.InvalidFID {
		t.Fatal("shared fault site lost")
	}
	if cu.FaultOf(cu.IDOf(f)) != f {
		t.Fatal("clone universe round-trip broken")
	}
}

func TestOneHotFieldConstraint(t *testing.T) {
	n := netlist.New("onehot")
	var ops []string
	var nets []netlist.NetID
	for i := 0; i < 4; i++ {
		name := []string{"op0", "op1", "op2", "op3"}[i]
		ops = append(ops, name)
		nets = append(nets, n.Input(name))
	}
	both := n.And("both", nets[0], nets[1])
	any := n.Or("any", nets[2], nets[3])
	n.OutputPort("po_both", both)
	n.OutputPort("po_any", any)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	bg, _ := n.GateByName("both")
	u := fault.NewUniverse(n)

	// Full scan: both=1 is reachable, so both/Z s-a-0 is detectable.
	sa0 := fault.Fault{Site: fault.Site{Gate: bg, Pin: fault.OutputPin}, SA: logic.Zero}
	out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Status.Get(u.IDOf(sa0)); got != fault.Detected {
		t.Fatalf("full-scan both/Z s-a-0: %v, want detected", got)
	}

	c := n.Clone()
	if _, _, err := Apply(c, OneHot{Nets: ops}); err != nil {
		t.Fatal(err)
	}
	cu := fault.NewUniverse(c)
	cout, err := atpg.GenerateAll(context.Background(), c, cu, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At most one op line fires: AND(op0,op1)=1 is unreachable.
	if got := cout.Status.Get(cu.IDOf(sa0)); got != fault.Untestable {
		t.Errorf("one-hot both/Z s-a-0: %v, want untestable", got)
	}
	// Single lines still fire: OR path stays testable.
	ag, _ := c.GateByName("any")
	anySA1 := cu.IDOf(fault.Fault{Site: fault.Site{Gate: ag, Pin: fault.OutputPin}, SA: logic.One})
	if got := cout.Status.Get(anySA1); got != fault.Detected {
		t.Errorf("one-hot any/Z s-a-1: %v, want detected", got)
	}
}

func TestOneHotSimulationSemantics(t *testing.T) {
	n := netlist.New("ohsim")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("pa", n.Buf("ba", a))
	n.OutputPort("pb", n.Buf("bb", b))
	c := n.Clone()
	if _, _, err := Apply(c, OneHot{Nets: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	s0, ok := c.NetByName("oh$a_s0")
	if !ok {
		t.Fatal("synthetic select missing")
	}
	s1, ok := c.NetByName("oh$a_s1")
	if !ok {
		t.Fatal("idle-encoding select missing (decoder must reserve a none-fires code)")
	}
	ba, _ := c.NetByName("ba")
	bb, _ := c.NetByName("bb")
	for _, tc := range []struct {
		s0, s1 logic.V
		want   [2]logic.V
	}{
		{logic.Zero, logic.Zero, [2]logic.V{logic.One, logic.Zero}}, // line a
		{logic.One, logic.Zero, [2]logic.V{logic.Zero, logic.One}},  // line b
		{logic.Zero, logic.One, [2]logic.V{logic.Zero, logic.Zero}}, // idle
		{logic.One, logic.One, [2]logic.V{logic.Zero, logic.Zero}},  // idle
	} {
		s.SetInputV(s0, tc.s0)
		s.SetInputV(s1, tc.s1)
		s.EvalComb()
		got := [2]logic.V{s.NetVal(ba).Get(0), s.NetVal(bb).Get(0)}
		if got != tc.want {
			t.Errorf("sel=%s%s: lines %v, want %v", tc.s1, tc.s0, got, tc.want)
		}
	}
}

// unrollPair builds two flip-flops that always disagree after one functional
// cycle: q1 = DFF(d), q2 = DFF(NOT d), observed through XNOR(q1,q2).
func unrollPair(t *testing.T) (*netlist.Netlist, netlist.GateID) {
	t.Helper()
	n := netlist.New("upair")
	d := n.Input("d")
	nd := n.Not("nd", d)
	q1 := n.DFF("q1", d)
	q2 := n.DFF("q2", nd)
	y := n.Xnor("eq", q1, q2)
	n.OutputPort("po", y)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	eg, _ := n.GateByName("eq")
	return n, eg
}

func TestUnrollProvesUnreachableStateUntestable(t *testing.T) {
	n, eq := unrollPair(t)
	u := fault.NewUniverse(n)
	sa0 := fault.Fault{Site: fault.Site{Gate: eq, Pin: fault.OutputPin}, SA: logic.Zero}
	sa1 := fault.Fault{Site: fault.Site{Gate: eq, Pin: fault.OutputPin}, SA: logic.One}

	// Full scan treats q1,q2 as free pseudo-inputs: q1==q2 is assignable.
	out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Status.Get(u.IDOf(sa0)); got != fault.Detected {
		t.Fatalf("full-scan eq/Z s-a-0: %v, want detected", got)
	}

	// Two frames of functional logic force q1 != q2.
	c := n.Clone()
	_, sm, err := Apply(c, Unroll{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.FlipFlops()); got != 0 {
		t.Fatalf("unroll left %d live flip-flops", got)
	}
	cu := fault.NewUniverse(c)
	cout, err := atpg.GenerateAll(context.Background(), c, cu, atpg.Options{Sites: sm})
	if err != nil {
		t.Fatal(err)
	}
	if got := cout.Status.Get(cu.IDOf(sa0)); got != fault.Untestable {
		t.Errorf("unrolled eq/Z s-a-0: %v, want untestable (XNOR can never be 1)", got)
	}
	if got := cout.Status.Get(cu.IDOf(sa1)); got != fault.Detected {
		t.Errorf("unrolled eq/Z s-a-1: %v, want detected", got)
	}
}

func TestUnrollDFFRUsesSynchronousReset(t *testing.T) {
	// A DFFR with rstn tied into the frame logic: next state = rstn AND d.
	n := netlist.New("dffr")
	d := n.Input("d")
	rstn := n.Input("rstn")
	q := n.DFFR("q", d, rstn)
	n.OutputPort("po", q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if _, _, err := Apply(c, Unroll{Frames: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	poNet, _ := c.NetByName("q") // the spliced former FF output net
	df0, ok := c.NetByName("uf_f0_d")
	if !ok {
		t.Fatal("frame-0 input copy missing")
	}
	rf0, _ := c.NetByName("uf_f0_rstn")
	for _, tc := range []struct {
		d, rstn, want logic.V
	}{
		{logic.One, logic.One, logic.One},
		{logic.One, logic.Zero, logic.Zero},
		{logic.Zero, logic.One, logic.Zero},
	} {
		s.SetInputV(df0, tc.d)
		s.SetInputV(rf0, tc.rstn)
		s.EvalComb()
		if got := s.NetVal(poNet).Get(0); got != tc.want {
			t.Errorf("d=%s rstn=%s: q=%s, want %s", tc.d, tc.rstn, got, tc.want)
		}
	}
}

func TestRepeatedTransformsDoNotCollide(t *testing.T) {
	// Re-applying a transform (or stacking two with the same base name)
	// must pick fresh name prefixes. No build-time check guards names, so
	// the test asserts that no two gates and no two nets share one.
	n := netlist.New("rep")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("y", a, b))
	c := n.Clone()
	if _, _, err := Apply(c, OneHot{Nets: []string{"a", "b"}}, OneHot{Nets: []string{"a", "b"}},
		Tie{Net: "y", Value: logic.Zero}, Tie{Net: "y", Value: logic.One}); err != nil {
		t.Fatalf("stacked one-hot and ties: %v", err)
	}
	if dups := testutil.DuplicateNames(c); len(dups) > 0 {
		t.Errorf("stacked one-hot and ties reuse names: %v", dups)
	}

	// Unroll stacked twice on a sequential circuit: the second application
	// fails cleanly (no flip-flops left), and the first names every frame
	// copy apart from the design's own names.
	m := netlist.New("rep2")
	d := m.Input("d")
	q := m.DFF("q", d)
	m.OutputPort("po", q)
	cm := m.Clone()
	if _, _, err := Apply(cm, Unroll{Frames: 3}); err != nil {
		t.Fatal(err)
	}
	if dups := testutil.DuplicateNames(cm); len(dups) > 0 {
		t.Errorf("unroll reuses names: %v", dups)
	}
	if _, _, err := Apply(cm, Unroll{Frames: 2}); err == nil {
		t.Fatal("second unroll should report no flip-flops")
	}
}

func TestApplyErrors(t *testing.T) {
	n := netlist.New("err")
	n.OutputPort("po", n.Input("a"))
	cases := []Transform{
		Tie{Net: "nosuch", Value: logic.Zero},
		Tie{Net: "a", Value: logic.X},
		OneHot{Nets: []string{"a"}},
		OneHot{Nets: []string{"a", "nosuch"}},
		Unroll{Frames: 0},
		Unroll{Frames: 2}, // no flip-flops
	}
	for _, tr := range cases {
		if _, _, err := Apply(n.Clone(), tr); err == nil {
			t.Errorf("%s: want error", tr.Describe())
		}
	}

	// A name two nets share is no name: Tie and OneHot refuse it as they
	// refuse a missing one.
	amb := netlist.New("ambiguous")
	amb.OutputPort("po", amb.Or("y", amb.Input("a"), amb.Input("a"), amb.Input("b")))
	for _, tr := range []Transform{
		Tie{Net: "a", Value: logic.Zero},
		OneHot{Nets: []string{"b", "a"}},
	} {
		_, _, err := Apply(amb.Clone(), tr)
		if err == nil || !strings.Contains(err.Error(), `net "a" is missing or ambiguous`) {
			t.Errorf("%s: err = %v, want net \"a\" missing or ambiguous", tr.Describe(), err)
		}
	}
}
