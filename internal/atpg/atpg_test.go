package atpg

import (
	"context"
	"slices"
	"testing"

	"olfui/internal/dp"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// confirmBySim independently checks a Detected result with the ternary
// fault simulator: the returned pattern must detect the fault under PPSFP
// grading at the same observation points.
func confirmBySim(t *testing.T, n *netlist.Netlist, u *fault.Universe, f fault.Fault, r Result) {
	t.Helper()
	fid := u.IDOf(f)
	if fid == fault.InvalidFID {
		t.Fatalf("fault %v not in universe", f)
	}
	var states []sim.Pattern
	if len(r.State) > 0 {
		states = []sim.Pattern{r.State}
	}
	det, err := sim.GradeComb(n, u, []sim.Pattern{r.Pattern}, states, []fault.FID{fid})
	if err != nil {
		t.Fatalf("GradeComb: %v", err)
	}
	if !det.Has(fid) {
		t.Errorf("pattern %v does not detect %s under fault simulation", r.Pattern, u.Describe(f))
	}
}

func TestGenerateSimpleAnd(t *testing.T) {
	n := netlist.New("and2")
	a := n.Input("a")
	b := n.Input("b")
	y := n.And("y", a, b)
	n.OutputPort("po", y)
	u := fault.NewUniverse(n)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}

	gid, _ := n.GateByName("y")
	// Every fault of the AND gate must be detected.
	for _, fid := range u.GateFaults(gid) {
		f := u.FaultOf(fid)
		r := e.Generate(f)
		if r.Verdict != Detected {
			t.Fatalf("%s: got %v, want detected", u.Describe(f), r.Verdict)
		}
		confirmBySim(t, n, u, f, r)
	}

	// Output s-a-0 needs a=b=1.
	r := e.Generate(fault.Fault{Site: fault.Site{Gate: gid, Pin: fault.OutputPin}, SA: logic.Zero})
	if r.Pattern[0] != logic.One || r.Pattern[1] != logic.One {
		t.Errorf("AND output s-a-0 pattern = %v, want [1 1]", r.Pattern)
	}
}

func TestGenerateXorChain(t *testing.T) {
	// XOR parity chain: every fault needs a sensitized path through XORs,
	// exercising the XOR objective and backtrace rules.
	n := netlist.New("parity")
	var nets []netlist.NetID
	for i := 0; i < 6; i++ {
		nets = append(nets, n.Input(string(rune('a'+i))))
	}
	y := nets[0]
	for i := 1; i < len(nets); i++ {
		y = n.Xor("", y, nets[i])
	}
	n.OutputPort("po", y)

	u := fault.NewUniverse(n)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < u.NumFaults(); id++ {
		f := u.FaultOf(fault.FID(id))
		r := e.Generate(f)
		if r.Verdict != Detected {
			t.Fatalf("%s: got %v, want detected", u.Describe(f), r.Verdict)
		}
		confirmBySim(t, n, u, f, r)
	}
}

func TestUntestableConstantNode(t *testing.T) {
	// A tie-driven net can never be set to the opposite value: s-a-v on a
	// constant-v net is untestable by lack of activation.
	n := netlist.New("const")
	a := n.Input("a")
	one := n.Tie1("one")
	y := n.And("y", a, one)
	n.OutputPort("po", y)

	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tieGate, _ := n.GateByName("one")
	r := e.Generate(fault.Fault{Site: fault.Site{Gate: tieGate, Pin: fault.OutputPin}, SA: logic.One})
	if r.Verdict != Untestable {
		t.Errorf("tie-1 output s-a-1: got %v, want untestable", r.Verdict)
	}
	// The complementary fault (s-a-0 on the constant-1 net) is testable.
	r = e.Generate(fault.Fault{Site: fault.Site{Gate: tieGate, Pin: fault.OutputPin}, SA: logic.Zero})
	if r.Verdict != Detected {
		t.Errorf("tie-1 output s-a-0: got %v, want detected", r.Verdict)
	}
}

// consensusNetlist builds y = a·b + ā·c + b·c. The consensus term b·c is
// redundant: its output s-a-0 is the textbook untestable fault that needs a
// genuine search-space exhaustion (not just failed activation) to prove.
func consensusNetlist() (*netlist.Netlist, netlist.GateID) {
	n := netlist.New("consensus")
	a := n.Input("a")
	b := n.Input("b")
	c := n.Input("c")
	na := n.Not("na", a)
	t1 := n.And("t1", a, b)
	t2 := n.And("t2", na, c)
	t3 := n.And("t3", b, c)
	y := n.Or("y", t1, t2, t3)
	n.OutputPort("po", y)
	g, _ := n.GateByName("t3")
	return n, g
}

func TestUntestableRedundantConsensus(t *testing.T) {
	n, t3 := consensusNetlist()
	u := fault.NewUniverse(n)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Site: fault.Site{Gate: t3, Pin: fault.OutputPin}, SA: logic.Zero}
	r := e.Generate(f)
	if r.Verdict != Untestable {
		t.Fatalf("consensus term s-a-0: got %v, want untestable (backtracks=%d)", r.Verdict, r.Backtracks)
	}
	if r.Backtracks == 0 {
		t.Error("consensus proof took zero backtracks; expected a real search")
	}
	// Exhaustive cross-check: no input assignment detects the fault.
	fid := u.IDOf(f)
	var all []sim.Pattern
	for v := 0; v < 8; v++ {
		all = append(all, sim.Pattern{
			logic.FromBit(uint64(v)), logic.FromBit(uint64(v >> 1)), logic.FromBit(uint64(v >> 2)),
		})
	}
	det, err := sim.GradeComb(n, u, all, nil, []fault.FID{fid})
	if err != nil {
		t.Fatal(err)
	}
	if det.Has(fid) {
		t.Error("exhaustive simulation detects the fault ATPG called untestable")
	}
}

func TestGenerateWithState(t *testing.T) {
	// A flip-flop output is a controllable pseudo-input and its D pin an
	// observation point in the full-scan view.
	n := netlist.New("seq")
	a := n.Input("a")
	q := n.DFF("q", a) // q reads a, q drives the AND below
	y := n.And("y", a, q)
	n.OutputPort("po", y)

	u := fault.NewUniverse(n)
	e, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gid, _ := n.GateByName("y")
	f := fault.Fault{Site: fault.Site{Gate: gid, Pin: 1}, SA: logic.Zero}
	r := e.Generate(f)
	if r.Verdict != Detected {
		t.Fatalf("got %v, want detected", r.Verdict)
	}
	if len(r.State) != 1 || r.State[0] != logic.One {
		t.Errorf("state pattern = %v, want [1]", r.State)
	}
	confirmBySim(t, n, u, f, r)
}

// datapathNetlist builds the acceptance circuit: an 8-bit adder/mux datapath
// with a redundant consensus subcircuit riding along, giving a few hundred
// collapsed fault classes with known-untestable members.
func datapathNetlist() (*netlist.Netlist, netlist.GateID) {
	n := netlist.New("datapath")
	a := dp.InputBus(n, "a", 8)
	b := dp.InputBus(n, "b", 8)
	sel := n.Input("sel")
	cin := n.Input("cin")
	sum, cout := dp.RippleAdder(n, "add", a, b, cin)
	diff, _ := dp.Subtractor(n, "sub", a, b)
	res := dp.Mux2Bus(n, "rmux", sum, diff, sel)
	dp.OutputBus(n, "res", res)
	n.OutputPort("cout", cout)
	eq := dp.EqBus(n, "eq", a, b)
	n.OutputPort("eq", eq)

	// Redundant consensus subcircuit: y2 = s·c0 + s̄·c1 + c0·c1.
	s := n.Input("s")
	c0 := n.Input("c0")
	c1 := n.Input("c1")
	ns := n.Not("ns", s)
	u1 := n.And("u1", s, c0)
	u2 := n.And("u2", ns, c1)
	u3 := n.And("u3", c0, c1)
	y2 := n.Or("y2", u1, u2, u3)
	n.OutputPort("po2", y2)
	g, _ := n.GateByName("u3")
	return n, g
}

func TestGenerateAllDatapath(t *testing.T) {
	n, redundant := datapathNetlist()
	u := fault.NewUniverse(n)
	collapse := fault.NewCollapse(u)
	if c := collapse.NumClasses(); c < 200 {
		t.Fatalf("datapath has %d collapsed classes, want a few hundred", c)
	}

	out, err := GenerateAll(context.Background(), n, u, Options{BacktrackLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stats: %s", out.Stats)

	if out.Stats.Aborted != 0 {
		t.Fatalf("%d classes aborted at a generous backtrack limit", out.Stats.Aborted)
	}
	if out.Stats.Detected+out.Stats.Untestable != out.Stats.Classes {
		t.Fatalf("classification incomplete: %d+%d != %d classes",
			out.Stats.Detected, out.Stats.Untestable, out.Stats.Classes)
	}

	// Every fault in the universe must be classified after class spreading.
	counts := out.Status.Counts()
	if got := counts[fault.Undetected] + counts[fault.Aborted]; got != 0 {
		t.Fatalf("%d faults left unclassified", got)
	}

	// The deliberately redundant consensus-term fault must be proven
	// untestable.
	rid := u.IDOf(fault.Fault{Site: fault.Site{Gate: redundant, Pin: fault.OutputPin}, SA: logic.Zero})
	if got := out.Status.Get(rid); got != fault.Untestable {
		t.Errorf("redundant consensus fault: got %v, want untestable", got)
	}

	// GenerateAll completes every emitted test: no row keeps an X.
	for i := range out.Patterns {
		for _, row := range []sim.Pattern{out.Patterns[i], out.States[i]} {
			for j, v := range row {
				if !v.IsKnown() {
					t.Fatalf("test %d keeps X at input %d: %v", i, j, row)
				}
			}
		}
	}

	// Independent confirmation: the emitted test set must detect every
	// Detected fault under PPSFP fault simulation...
	detectedIDs := out.Status.FaultsWith(fault.Detected)
	simDet, err := sim.GradeComb(n, u, out.Patterns, out.States, detectedIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got := simDet.Count(); got != len(detectedIDs) {
		t.Errorf("test set confirms %d of %d detected faults", got, len(detectedIDs))
	}
	// ...and must not detect any fault proven untestable.
	untestIDs := out.Status.FaultsWith(fault.Untestable)
	simUnt, err := sim.GradeComb(n, u, out.Patterns, out.States, untestIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got := simUnt.Count(); got != 0 {
		t.Errorf("test set detects %d faults proven untestable", got)
	}
}

func TestGenerateAllSingleWorkerDeterministic(t *testing.T) {
	n, _ := datapathNetlist()
	u := fault.NewUniverse(n)
	run := func() *Outcome {
		out, err := GenerateAll(context.Background(), n, u, Options{Workers: 1, BacktrackLimit: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Stats.Patterns != b.Stats.Patterns || a.Stats.Untestable != b.Stats.Untestable {
		t.Errorf("single-worker runs disagree: %s vs %s", a.Stats, b.Stats)
	}
	for i := range a.Patterns {
		for j := range a.Patterns[i] {
			if a.Patterns[i][j] != b.Patterns[i][j] {
				t.Fatalf("pattern %d differs between runs", i)
			}
		}
		for j := range a.States[i] {
			if a.States[i][j] != b.States[i][j] {
				t.Fatalf("state %d differs between runs", i)
			}
		}
	}
}

// TestCompleteTest pins the completion of a Detected search's test: every
// known entry is kept, every X becomes 0 or 1, the same FID and input rows
// always complete to the same rows, and completing allocates nothing.
func TestCompleteTest(t *testing.T) {
	X, Z, O := logic.X, logic.Zero, logic.One
	pattern := sim.Pattern{X, Z, X, O, X, X, Z, X, X, X, O, X}
	// A state row longer than one 64-bit word exercises the stream's refill.
	state := make(sim.Pattern, 70)
	for i := range state {
		state[i] = X
	}
	state[1], state[4] = O, Z
	complete := func(fid fault.FID) (sim.Pattern, sim.Pattern) {
		p, s := slices.Clone(pattern), slices.Clone(state)
		completeTest(fid, p, s)
		return p, s
	}
	p, s := complete(7)
	for _, c := range []struct{ in, out sim.Pattern }{{pattern, p}, {state, s}} {
		for i, v := range c.in {
			switch {
			case !c.out[i].IsKnown():
				t.Fatalf("entry %d still X: %v", i, c.out)
			case v.IsKnown() && c.out[i] != v:
				t.Fatalf("entry %d: known %v became %v", i, v, c.out[i])
			}
		}
	}
	if p2, s2 := complete(7); !slices.Equal(p, p2) || !slices.Equal(s, s2) {
		t.Errorf("FID 7 completed to %v %v, then to %v %v", p, s, p2, s2)
	}
	if p3, s3 := complete(8); slices.Equal(p, p3) && slices.Equal(s, s3) {
		t.Errorf("FIDs 7 and 8 completed to the same rows %v %v", p, s)
	}
	buf := make(sim.Pattern, len(state))
	if n := testing.AllocsPerRun(10, func() {
		copy(buf, state)
		completeTest(7, buf, nil)
	}); n != 0 {
		t.Errorf("completeTest allocates %v times per call", n)
	}
}

// TestLiftTests pins lifting a test set onto a netlist with other input
// widths: each row keeps the entries that fit, at their positions, every
// added or X entry becomes 0 or 1, the input rows stay untouched, the same
// rows always lift to the same rows, and a lifted row has no spare
// capacity, so appending to one never writes into another.
func TestLiftTests(t *testing.T) {
	X, Z, O := logic.X, logic.Zero, logic.One
	pats := []sim.Pattern{{Z, O, X}, {O, O, O}}
	states := []sim.Pattern{{O, Z}, {X, O}}
	inPats, inStates := slices.Clone(pats), slices.Clone(states)
	for i := range pats {
		inPats[i], inStates[i] = slices.Clone(pats[i]), slices.Clone(states[i])
	}
	lp, ls := LiftTests(pats, states, 5, 1)
	if len(lp) != len(pats) || len(ls) != len(pats) {
		t.Fatalf("lifted %d/%d rows from %d", len(lp), len(ls), len(pats))
	}
	for i := range pats {
		if !slices.Equal(pats[i], inPats[i]) || !slices.Equal(states[i], inStates[i]) {
			t.Fatalf("row %d of the input changed", i)
		}
		if len(lp[i]) != 5 || cap(lp[i]) != 5 || len(ls[i]) != 1 || cap(ls[i]) != 1 {
			t.Fatalf("row %d lifted to len/cap %d/%d and %d/%d, want 5/5 and 1/1",
				i, len(lp[i]), cap(lp[i]), len(ls[i]), cap(ls[i]))
		}
		for _, c := range []struct{ in, out sim.Pattern }{{pats[i], lp[i]}, {states[i], ls[i]}} {
			for j, v := range c.out {
				switch {
				case !v.IsKnown():
					t.Fatalf("row %d entry %d still X: %v", i, j, c.out)
				case j < len(c.in) && c.in[j].IsKnown() && v != c.in[j]:
					t.Fatalf("row %d entry %d: known %v became %v", i, j, c.in[j], v)
				}
			}
		}
	}
	lp2, ls2 := LiftTests(pats, states, 5, 1)
	for i := range lp {
		if !slices.Equal(lp[i], lp2[i]) || !slices.Equal(ls[i], ls2[i]) {
			t.Fatalf("row %d lifted to %v %v, then to %v %v", i, lp[i], ls[i], lp2[i], ls2[i])
		}
	}
	before := slices.Clone(ls[0])
	_ = append(lp[0], X)
	if !slices.Equal(ls[0], before) {
		t.Fatal("appending to a lifted pattern row wrote into its state row")
	}
}

func TestRestrictedObservables(t *testing.T) {
	// Two cones: one ends at an unread register's D pin, one at a primary
	// output. Restricting observation to outputs must flip the hidden
	// cone's verdicts from Detected to Untestable — with proofs, since the
	// search space is unchanged.
	n := netlist.New("robs")
	a, b := n.Input("a"), n.Input("b")
	hidden := n.And("hidden", a, b)
	n.DFF("q", hidden)
	vis := n.Or("vis", a, b)
	n.OutputPort("po", vis)
	u := fault.NewUniverse(n)
	hg, _ := n.GateByName("hidden")
	vg, _ := n.GateByName("vis")

	full, err := GenerateAll(context.Background(), n, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ol, err := GenerateAll(context.Background(), n, u, Options{ObsPoints: sim.OutputObsPoints(n)})
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range []logic.V{logic.Zero, logic.One} {
		hf := u.IDOf(fault.Fault{Site: fault.Site{Gate: hg, Pin: fault.OutputPin}, SA: sa})
		vf := u.IDOf(fault.Fault{Site: fault.Site{Gate: vg, Pin: fault.OutputPin}, SA: sa})
		if got := full.Status.Get(hf); got != fault.Detected {
			t.Errorf("full-scan hidden s-a-%s: %v, want detected", sa, got)
		}
		if got := ol.Status.Get(hf); got != fault.Untestable {
			t.Errorf("output-only hidden s-a-%s: %v, want untestable", sa, got)
		}
		if got := ol.Status.Get(vf); got != fault.Detected {
			t.Errorf("output-only vis s-a-%s: %v, want detected", sa, got)
		}
	}
	// Restricted runs must never report more detections than full scan.
	cf, co := full.Status.Counts(), ol.Status.Counts()
	if co[fault.Detected] > cf[fault.Detected] {
		t.Errorf("restricted obs detected %d > full-scan %d", co[fault.Detected], cf[fault.Detected])
	}
}

func TestEngineObsSubsetOfOutputs(t *testing.T) {
	// Observing a strict subset of the primary outputs: a fault whose only
	// path leads to the unobserved output becomes untestable.
	n := netlist.New("subset")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po0", n.And("y0", a, b))
	n.OutputPort("po1", n.Or("y1", a, b))
	po0, _ := n.GateByName("po0")
	y1g, _ := n.GateByName("y1")

	eng, err := New(n, Options{ObsPoints: []sim.ObsPoint{{Gate: po0, Pin: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Generate(fault.Fault{Site: fault.Site{Gate: y1g, Pin: fault.OutputPin}, SA: logic.Zero})
	if r.Verdict != Untestable {
		t.Errorf("fault on unobserved cone: %v, want untestable", r.Verdict)
	}
	y0g, _ := n.GateByName("y0")
	r = eng.Generate(fault.Fault{Site: fault.Site{Gate: y0g, Pin: fault.OutputPin}, SA: logic.Zero})
	if r.Verdict != Detected {
		t.Errorf("fault on observed cone: %v, want detected", r.Verdict)
	}
}
