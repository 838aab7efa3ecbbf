package sim

import (
	"math/rand"
	"strings"
	"testing"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

func mustSim(t *testing.T, n *netlist.Netlist) *Simulator {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s, err := New(n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestGateEvaluationTruthTables(t *testing.T) {
	n := netlist.New("gates")
	a, b := n.Input("a"), n.Input("b")
	outs := map[string]netlist.NetID{
		"and":  n.And("g_and", a, b),
		"nand": n.Nand("g_nand", a, b),
		"or":   n.Or("g_or", a, b),
		"nor":  n.Nor("g_nor", a, b),
		"xor":  n.Xor("g_xor", a, b),
		"xnor": n.Xnor("g_xnor", a, b),
		"not":  n.Not("g_not", a),
		"buf":  n.Buf("g_buf", a),
	}
	s := mustSim(t, n)
	ref := map[string]func(x, y logic.V) logic.V{
		"and":  func(x, y logic.V) logic.V { return x.And(y) },
		"nand": func(x, y logic.V) logic.V { return x.And(y).Not() },
		"or":   func(x, y logic.V) logic.V { return x.Or(y) },
		"nor":  func(x, y logic.V) logic.V { return x.Or(y).Not() },
		"xor":  func(x, y logic.V) logic.V { return x.Xor(y) },
		"xnor": func(x, y logic.V) logic.V { return x.Xor(y).Not() },
		"not":  func(x, _ logic.V) logic.V { return x.Not() },
		"buf":  func(x, _ logic.V) logic.V { return x },
	}
	vals := []logic.V{logic.Zero, logic.One, logic.X}
	for _, av := range vals {
		for _, bv := range vals {
			s.SetInputV(a, av)
			s.SetInputV(b, bv)
			s.EvalComb()
			for name, net := range outs {
				want := ref[name](av, bv)
				if got := s.NetVal(net).Get(0); got != want {
					t.Errorf("%s(%s,%s) = %s, want %s", name, av, bv, got, want)
				}
			}
		}
	}
}

func TestMuxAndTies(t *testing.T) {
	n := netlist.New("mt")
	d0, d1, sel := n.Input("d0"), n.Input("d1"), n.Input("s")
	m := n.Mux2("m", d0, d1, sel)
	t0, t1 := n.Tie0("t0"), n.Tie1("t1")
	and := n.And("a", m, t1)
	or := n.Or("o", m, t0)
	s := mustSim(t, n)
	s.SetInputV(d0, logic.Zero)
	s.SetInputV(d1, logic.One)
	s.SetInputV(sel, logic.One)
	s.EvalComb()
	if s.NetVal(m).Get(0) != logic.One || s.NetVal(and).Get(0) != logic.One || s.NetVal(or).Get(0) != logic.One {
		t.Error("mux/tie evaluation wrong")
	}
	s.SetInputV(sel, logic.Zero)
	s.EvalComb()
	if s.NetVal(m).Get(0) != logic.Zero {
		t.Error("mux select-0 wrong")
	}
}

func TestSequentialToggle(t *testing.T) {
	// q' = NOT q: toggles every cycle after reset.
	n := netlist.New("tog")
	rstn := n.Input("rstn")
	d := n.NewNet("d")
	q := n.DFFR("q", d, rstn)
	nq := n.Not("nq", q)
	// close loop: d is driven by nq's driver
	n.RewirePin(netlist.Pin{Gate: mustGate(t, n, "q"), In: netlist.DffD}, nq)
	_ = d
	s := mustSim(t, n)
	s.SetInputV(rstn, logic.Zero)
	s.Step()
	s.SetInputV(rstn, logic.One)
	want := logic.Zero
	for cyc := 0; cyc < 6; cyc++ {
		if got := s.NetVal(q).Get(0); got != want {
			t.Fatalf("cycle %d: q=%s want %s", cyc, got, want)
		}
		s.Step()
		want = want.Not()
	}
}

func mustGate(t *testing.T, n *netlist.Netlist, name string) netlist.GateID {
	t.Helper()
	id, ok := n.GateByName(name)
	if !ok {
		t.Fatalf("no gate %q", name)
	}
	return id
}

func TestUndrivenNetReadsX(t *testing.T) {
	n := netlist.New("und")
	a := n.Input("a")
	floating := n.NewNet("f")
	y := n.And("y", a, floating)
	s, err := New(n) // skip Validate: undriven read nets are intentional here
	if err != nil {
		t.Fatal(err)
	}
	s.SetInputV(a, logic.One)
	s.EvalComb()
	if got := s.NetVal(y).Get(0); got != logic.X {
		t.Errorf("AND(1, floating) = %s, want X", got)
	}
	s.SetInputV(a, logic.Zero)
	s.EvalComb()
	if got := s.NetVal(y).Get(0); got != logic.Zero {
		t.Errorf("AND(0, floating) = %s, want 0 (controlling)", got)
	}
}

func TestInjectionOnPinAndOutput(t *testing.T) {
	n := netlist.New("inj")
	a, b := n.Input("a"), n.Input("b")
	y := n.And("y", a, b)
	n.OutputPort("po", y)
	gid := mustGate(t, n, "y")
	s := mustSim(t, n)
	s.SetInputV(a, logic.One)
	s.SetInputV(b, logic.Zero)

	// Pin-1 stuck-at-1 in lanes 0..31 only: those lanes see AND(1,1)=1.
	s.AddInjection(Injection{Site: fault.Site{Gate: gid, Pin: 1}, SA: logic.One, Mask: 0xFFFFFFFF})
	s.EvalComb()
	v := s.NetVal(y)
	if v.Get(0) != logic.One || v.Get(32) != logic.Zero {
		t.Errorf("pin injection lanes wrong: %s/%s", v.Get(0), v.Get(32))
	}

	// Output stuck-at-0 overrides everything in its lanes.
	s.ClearInjections()
	s.AddInjection(Injection{Site: fault.Site{Gate: gid, Pin: fault.OutputPin}, SA: logic.Zero, Mask: 1})
	s.SetInputV(b, logic.One)
	s.EvalComb()
	v = s.NetVal(y)
	if v.Get(0) != logic.Zero || v.Get(1) != logic.One {
		t.Errorf("output injection wrong: %s/%s", v.Get(0), v.Get(1))
	}

	// Injection on a PI's output pin (stem fault at the input).
	s.ClearInjections()
	aGate := mustGate(t, n, "a")
	s.AddInjection(Injection{Site: fault.Site{Gate: aGate, Pin: fault.OutputPin}, SA: logic.Zero, Mask: ^uint64(0)})
	s.SetInputV(a, logic.One)
	s.EvalComb()
	if got := s.NetVal(y).Get(5); got != logic.Zero {
		t.Errorf("PI stem injection not applied: %s", got)
	}
}

func TestInjectionOnFFOutput(t *testing.T) {
	n := netlist.New("injff")
	d := n.Input("d")
	q := n.DFF("q", d)
	n.OutputPort("po", q)
	qg := mustGate(t, n, "q")
	s := mustSim(t, n)
	s.AddInjection(Injection{Site: fault.Site{Gate: qg, Pin: fault.OutputPin}, SA: logic.One, Mask: ^uint64(0)})
	s.SetInputV(d, logic.Zero)
	s.Step()
	s.EvalComb()
	if got := s.NetVal(q).Get(0); got != logic.One {
		t.Errorf("FF output stuck-at-1 reads %s", got)
	}
}

func TestGradeCombDetectsAndGateFaults(t *testing.T) {
	// Exhaustive patterns on y = AND(a, b): every uncollapsed fault on the
	// AND gate and the PIs is detectable.
	n := netlist.New("gc")
	a, b := n.Input("a"), n.Input("b")
	y := n.And("y", a, b)
	n.OutputPort("po", y)
	u := fault.NewUniverse(n)

	var patterns []Pattern
	for v := 0; v < 4; v++ {
		patterns = append(patterns, Pattern{logic.FromBit(uint64(v)), logic.FromBit(uint64(v >> 1))})
	}
	all := make([]fault.FID, u.NumFaults())
	for i := range all {
		all[i] = fault.FID(i)
	}
	det, err := GradeComb(n, u, patterns, nil, all)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Count(); got != u.NumFaults() {
		var missing []string
		for _, id := range all {
			if !det.Has(id) {
				missing = append(missing, u.Describe(u.FaultOf(id)))
			}
		}
		t.Errorf("detected %d/%d; missing %v", got, u.NumFaults(), missing)
	}
}

func TestGradeCombRedundantFaultNotDetected(t *testing.T) {
	// y = OR(a, AND(a, b)) — the AND gate is redundant logic (absorption);
	// its faults toward the OR are not all detectable.
	n := netlist.New("red")
	a, b := n.Input("a"), n.Input("b")
	ab := n.And("ab", a, b)
	y := n.Or("y", a, ab)
	n.OutputPort("po", y)
	u := fault.NewUniverse(n)

	var patterns []Pattern
	for v := 0; v < 4; v++ {
		patterns = append(patterns, Pattern{logic.FromBit(uint64(v)), logic.FromBit(uint64(v >> 1))})
	}
	// ab output s-a-0: with absorption y==a regardless; undetectable.
	abGate := mustGate(t, n, "ab")
	sa0 := u.IDOf(fault.Fault{Site: fault.Site{Gate: abGate, Pin: fault.OutputPin}, SA: logic.Zero})
	det, err := GradeComb(n, u, patterns, nil, []fault.FID{sa0})
	if err != nil {
		t.Fatal(err)
	}
	if det.Has(sa0) {
		t.Error("redundant fault reported detected")
	}
}

func TestGradeCombWithStatePatterns(t *testing.T) {
	// FF output feeds logic; state patterns act as pseudo-inputs.
	n := netlist.New("st")
	d := n.Input("d")
	q := n.DFF("q", d)
	a := n.Input("a")
	y := n.Xor("y", q, a)
	n.OutputPort("po", y)
	u := fault.NewUniverse(n)
	qGate := mustGate(t, n, "q")
	fid := u.IDOf(fault.Fault{Site: fault.Site{Gate: qGate, Pin: fault.OutputPin}, SA: logic.One})

	patterns := []Pattern{{logic.Zero, logic.Zero}} // d, a
	state := []Pattern{{logic.Zero}}                // q = 0, fault flips it
	det, err := GradeComb(n, u, patterns, state, []fault.FID{fid})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Has(fid) {
		t.Error("state-pattern fault not detected")
	}
}

// obsSplitCircuit has two cones from the same inputs: one observable only at
// a flip-flop D pin (the register is never read), one at a primary output.
func obsSplitCircuit(t *testing.T) (*netlist.Netlist, *fault.Universe, fault.FID, fault.FID) {
	t.Helper()
	n := netlist.New("obssplit")
	a, b := n.Input("a"), n.Input("b")
	hidden := n.And("hidden", a, b)
	n.DFF("q", hidden) // q unread: the AND cone ends at the D pin
	vis := n.Or("vis", a, b)
	n.OutputPort("po", vis)
	u := fault.NewUniverse(n)
	hg := mustGate(t, n, "hidden")
	vg := mustGate(t, n, "vis")
	hf := u.IDOf(fault.Fault{Site: fault.Site{Gate: hg, Pin: fault.OutputPin}, SA: logic.Zero})
	vf := u.IDOf(fault.Fault{Site: fault.Site{Gate: vg, Pin: fault.OutputPin}, SA: logic.Zero})
	return n, u, hf, vf
}

func exhaustive2() []Pattern {
	var ps []Pattern
	for v := 0; v < 4; v++ {
		ps = append(ps, Pattern{logic.FromBit(uint64(v)), logic.FromBit(uint64(v >> 1))})
	}
	return ps
}

func TestGraderObsRestriction(t *testing.T) {
	n, u, hf, vf := obsSplitCircuit(t)
	patterns := exhaustive2()
	faults := []fault.FID{hf, vf}

	// Full-scan grader (D pins observed): both cones detectable.
	full, err := NewGrader(n, u)
	if err != nil {
		t.Fatal(err)
	}
	det := full.Grade(patterns, nil, faults)
	if !det.Has(hf) || !det.Has(vf) {
		t.Errorf("full-scan grader: hidden=%v vis=%v, want both detected", det.Has(hf), det.Has(vf))
	}

	// Output-only grader: the register-bound cone becomes invisible. This
	// is the fault that is detectable full-scan but not under output-only
	// observation.
	ol, err := NewGraderSites(n, u, OutputObsPoints(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	det = ol.Grade(patterns, nil, faults)
	if det.Has(hf) {
		t.Error("output-only grader detected the register-bound fault")
	}
	if !det.Has(vf) {
		t.Error("output-only grader missed the output-cone fault")
	}

	// An explicit single-point subset: only the flip-flop D pin.
	qg := mustGate(t, n, "q")
	dOnly, err := NewGraderSites(n, u, []ObsPoint{{Gate: qg, Pin: netlist.DffD}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det = dOnly.Grade(patterns, nil, faults)
	if !det.Has(hf) || det.Has(vf) {
		t.Errorf("D-pin-only grader: hidden=%v vis=%v, want true/false", det.Has(hf), det.Has(vf))
	}
}

func TestGradeCombUsesFullScanObs(t *testing.T) {
	// GradeComb's documented contract is full-scan observation; the
	// register-bound cone must therefore count as detected.
	n, u, hf, _ := obsSplitCircuit(t)
	det, err := GradeComb(n, u, exhaustive2(), nil, []fault.FID{hf})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Has(hf) {
		t.Error("GradeComb must observe flip-flop D pins")
	}
}

func TestGradeSeqToggleCircuit(t *testing.T) {
	// Counter bit with observable output; check a stuck FF is caught.
	n := netlist.New("gs")
	rstn := n.Input("rstn")
	en := n.Input("en")
	qn := n.NewNet("qn")
	x := n.Xor("x", qn, en)
	qg := n.AddGateOut(netlist.KDFFR, "q", qn, x, rstn)
	n.OutputPort("po", qn)
	u := fault.NewUniverse(n)

	stim := Stimulus{Inputs: []netlist.NetID{rstn, en}}
	stim.Cycles = append(stim.Cycles, []logic.V{logic.Zero, logic.Zero}) // reset
	for i := 0; i < 6; i++ {
		stim.Cycles = append(stim.Cycles, []logic.V{logic.One, logic.One})
	}
	var ids []fault.FID
	for _, f := range []fault.Fault{
		{Site: fault.Site{Gate: qg, Pin: fault.OutputPin}, SA: logic.Zero},
		{Site: fault.Site{Gate: qg, Pin: fault.OutputPin}, SA: logic.One},
		{Site: fault.Site{Gate: mustGate(t, n, "x"), Pin: 1}, SA: logic.Zero},
	} {
		ids = append(ids, u.IDOf(f))
	}
	det, err := GradeSeq(n, u, stim, OutputObsPoints(n), ids, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !det.Has(id) {
			t.Errorf("fault %s not detected by toggle stimulus", u.Describe(u.FaultOf(id)))
		}
	}
}

func TestGradeSeqManyFaultBatches(t *testing.T) {
	// More than 63 faults forces multiple batches; a chain of buffers from
	// an input to an output makes every fault trivially detectable.
	n := netlist.New("chain")
	in := n.Input("in")
	cur := in
	for i := 0; i < 40; i++ {
		cur = n.Buf("", cur)
	}
	n.OutputPort("po", cur)
	u := fault.NewUniverse(n)
	all := make([]fault.FID, u.NumFaults())
	for i := range all {
		all[i] = fault.FID(i)
	}
	if len(all) <= 64 {
		t.Fatalf("want >64 faults, got %d", len(all))
	}
	stim := Stimulus{Inputs: []netlist.NetID{in}}
	stim.Cycles = [][]logic.V{{logic.Zero}, {logic.One}}
	det, err := GradeSeq(n, u, stim, OutputObsPoints(n), all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if det.Count() != len(all) {
		t.Errorf("detected %d/%d buffer-chain faults", det.Count(), len(all))
	}
}

// TestGradeSeqRejectsMalformedStimulus pins the stimulus check: a cycle that
// does not drive exactly the listed inputs, an input that is not a net of
// the circuit, or a net listed twice (whose later entry would silently win)
// is an error naming the cycle or input, not an index panic.
func TestGradeSeqRejectsMalformedStimulus(t *testing.T) {
	n := netlist.New("ragged")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("g", a, b))
	u := fault.NewUniverse(n)
	all := make([]fault.FID, u.NumFaults())
	for i := range all {
		all[i] = fault.FID(i)
	}
	ok := []logic.V{logic.One, logic.One}
	for _, tc := range []struct {
		name   string
		inputs []netlist.NetID
		cycles [][]logic.V
		want   string
	}{
		{"short row", []netlist.NetID{a, b}, [][]logic.V{ok, {logic.One}}, "cycle 1"},
		{"long row", []netlist.NetID{a, b}, [][]logic.V{ok, ok, {logic.One, logic.One, logic.One}}, "cycle 2"},
		{"net past the end", []netlist.NetID{a, netlist.NetID(len(n.Nets))}, [][]logic.V{ok}, "input 1"},
		{"negative net", []netlist.NetID{netlist.InvalidNet, b}, [][]logic.V{ok}, "input 0"},
		{"net listed twice", []netlist.NetID{a, b, a}, [][]logic.V{{logic.One, logic.One, logic.Zero}}, "input 2"},
	} {
		_, err := GradeSeq(n, u, Stimulus{Inputs: tc.inputs, Cycles: tc.cycles}, OutputObsPoints(n), all, nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

func TestParallelLanesIndependent(t *testing.T) {
	// Drive 64 random patterns through a random circuit; each lane must
	// equal a scalar simulation of that pattern.
	rng := rand.New(rand.NewSource(9))
	n := netlist.New("lanes")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	t1 := n.And("t1", a, b)
	t2 := n.Xor("t2", t1, c)
	t3 := n.Or("t3", t2, a)
	n.OutputPort("po", t3)
	s := mustSim(t, n)

	var av, bv, cv uint64 = rng.Uint64(), rng.Uint64(), rng.Uint64()
	s.SetInput(a, logic.PVFromBits(av))
	s.SetInput(b, logic.PVFromBits(bv))
	s.SetInput(c, logic.PVFromBits(cv))
	s.EvalComb()
	out := s.NetVal(t3)
	for lane := 0; lane < 64; lane++ {
		x, y, z := av>>uint(lane)&1, bv>>uint(lane)&1, cv>>uint(lane)&1
		want := (x & y) ^ z | x
		if got := out.Get(lane); got != logic.FromBit(want) {
			t.Fatalf("lane %d: got %s want %d", lane, got, want)
		}
	}
}
