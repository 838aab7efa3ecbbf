package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// refSim is the netlist-walking simulator the compiled kernel replaced, kept
// as the independent reference the kernel and the graders are checked
// against. It levelizes the netlist itself, evaluates netlist.Gate structs
// one by one, and keeps injections as per-gate lists applied with
// logic.Select in registration order, so a later injection wins where masks
// overlap.
type refSim struct {
	n         *netlist.Netlist
	order     []netlist.GateID
	vals      []logic.PV // per net
	next      []logic.PV // per gate: pending flip-flop next state
	ffs       []netlist.GateID
	sources   []netlist.GateID
	injByGate [][]sim.Injection
	injGates  []netlist.GateID
}

func newRefSim(n *netlist.Netlist) (*refSim, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	r := &refSim{
		n:         n,
		order:     order,
		vals:      make([]logic.PV, len(n.Nets)),
		next:      make([]logic.PV, len(n.Gates)),
		ffs:       n.FlipFlops(),
		injByGate: make([][]sim.Injection, len(n.Gates)),
	}
	for i := range n.Gates {
		if n.Gates[i].Kind.IsSource() {
			r.sources = append(r.sources, netlist.GateID(i))
		}
	}
	r.ClearState(logic.X)
	return r, nil
}

func mustRefSim(t *testing.T, n *netlist.Netlist) *refSim {
	t.Helper()
	r, err := newRefSim(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *refSim) AddInjection(in sim.Injection) {
	g := in.Site.Gate
	if len(r.injByGate[g]) == 0 {
		r.injGates = append(r.injGates, g)
	}
	r.injByGate[g] = append(r.injByGate[g], in)
}

func (r *refSim) ClearInjections() {
	for _, g := range r.injGates {
		r.injByGate[g] = r.injByGate[g][:0]
	}
	r.injGates = r.injGates[:0]
}

func (r *refSim) ClearState(v logic.V) {
	for i := range r.vals {
		r.vals[i] = logic.PVSplat(v)
	}
}

func (r *refSim) SetInput(net netlist.NetID, v logic.PV) { r.vals[net] = v }

func (r *refSim) NetVal(net netlist.NetID) logic.PV { return r.vals[net] }

func (r *refSim) ObsVal(p sim.ObsPoint) logic.PV {
	return r.pinVal(p.Gate, &r.n.Gates[p.Gate], int(p.Pin))
}

// pinVal reads input pin p of gate g with injections applied.
func (r *refSim) pinVal(g netlist.GateID, gate *netlist.Gate, p int) logic.PV {
	v := r.vals[gate.Ins[p]]
	for _, in := range r.injByGate[g] {
		if int(in.Site.Pin) == p {
			v = logic.Select(in.Mask, logic.PVSplat(in.SA), v)
		}
	}
	return v
}

func (r *refSim) outVal(g netlist.GateID, v logic.PV) logic.PV {
	for _, in := range r.injByGate[g] {
		if in.Site.Pin == fault.OutputPin {
			v = logic.Select(in.Mask, logic.PVSplat(in.SA), v)
		}
	}
	return v
}

// refreshSource recomputes a source gate's output: ties drive their
// constants, input and flip-flop gates keep the current value, and output
// injections apply on top.
func (r *refSim) refreshSource(gid netlist.GateID, g *netlist.Gate) logic.PV {
	switch g.Kind {
	case netlist.KTie0:
		return r.outVal(gid, logic.PVAllZero)
	case netlist.KTie1:
		return r.outVal(gid, logic.PVAllOne)
	default: // KInput, KDFF, KDFFR
		return r.outVal(gid, r.vals[g.Out])
	}
}

func (r *refSim) EvalComb() {
	for _, gid := range r.sources {
		g := &r.n.Gates[gid]
		r.vals[g.Out] = r.refreshSource(gid, g)
	}
	for _, gid := range r.order {
		g := &r.n.Gates[gid]
		if g.Out == netlist.InvalidNet {
			continue // KOutput: nothing to compute
		}
		r.vals[g.Out] = r.outVal(gid, r.evalGate(gid, g))
	}
}

func (r *refSim) evalGate(gid netlist.GateID, g *netlist.Gate) logic.PV {
	switch g.Kind {
	case netlist.KBuf:
		return r.pinVal(gid, g, 0)
	case netlist.KNot:
		return r.pinVal(gid, g, 0).Not()
	case netlist.KAnd, netlist.KNand:
		v := r.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.And(r.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNand {
			v = v.Not()
		}
		return v
	case netlist.KOr, netlist.KNor:
		v := r.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.Or(r.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNor {
			v = v.Not()
		}
		return v
	case netlist.KXor:
		return r.pinVal(gid, g, 0).Xor(r.pinVal(gid, g, 1))
	case netlist.KXnor:
		return r.pinVal(gid, g, 0).Xor(r.pinVal(gid, g, 1)).Not()
	case netlist.KMux2:
		return logic.PVMux(r.pinVal(gid, g, netlist.MuxS),
			r.pinVal(gid, g, netlist.MuxD0), r.pinVal(gid, g, netlist.MuxD1))
	}
	panic(fmt.Sprintf("refSim: cannot evaluate %v gate %q", g.Kind, g.Name))
}

func (r *refSim) CommitState() {
	for _, f := range r.ffs {
		g := &r.n.Gates[f]
		d := r.pinVal(f, g, netlist.DffD)
		if g.Kind == netlist.KDFFR {
			rstn := r.pinVal(f, g, netlist.DffRstN)
			d = logic.PVMux(rstn, logic.PVAllZero, d)
		}
		r.next[f] = d
	}
	for _, f := range r.ffs {
		g := &r.n.Gates[f]
		r.vals[g.Out] = r.outVal(f, r.next[f])
	}
}

// kernelNetlist is a seeded random sequential circuit plus both tie kinds
// feeding logic, so every source kind carries a value and can be injected.
func kernelNetlist(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 5, Gates: 40, FFs: 6, Outputs: 3})
	a := n.Gates[n.PrimaryInputs()[0]].Out
	t0, t1 := n.Tie0("tie0"), n.Tie1("tie1")
	n.OutputPort("o_tie", n.And("g_tie1", t1, n.Or("g_tie0", t0, a)))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// randomPV draws 64 independent ternary lanes, about half of them X.
func randomPV(rng *rand.Rand) logic.PV {
	a, b := rng.Uint64(), rng.Uint64()
	return logic.PV{L0: a &^ b, L1: b &^ a}
}

// randomStuck is a stuck value for a kernel test: mostly 0 or 1, sometimes
// X, which the kernel must force just the same.
func randomStuck(rng *rand.Rand) logic.V {
	if rng.Intn(8) == 0 {
		return logic.X
	}
	return logic.V(rng.Intn(2))
}

// randomInjections draws an injection set over n: one on an input's output,
// a tie's output and a flip-flop's Q and D pins; a few on random input pins
// and outputs of live gates; and a stack of three on one pin with
// overlapping random masks and alternating stuck values.
func randomInjections(rng *rand.Rand, n *netlist.Netlist) []sim.Injection {
	byKind := map[netlist.Kind][]netlist.GateID{}
	var live []netlist.GateID
	for i := range n.Gates {
		if k := n.Gates[i].Kind; k != netlist.KDead {
			byKind[k] = append(byKind[k], netlist.GateID(i))
			live = append(live, netlist.GateID(i))
		}
	}
	pick := func(gs []netlist.GateID) netlist.GateID { return gs[rng.Intn(len(gs))] }
	inj := func(g netlist.GateID, pin int32) sim.Injection {
		return sim.Injection{Site: fault.Site{Gate: g, Pin: pin}, SA: randomStuck(rng), Mask: rng.Uint64()}
	}
	randomPin := func(g netlist.GateID) int32 {
		gate := &n.Gates[g]
		if len(gate.Ins) > 0 && (gate.Out == netlist.InvalidNet || rng.Intn(2) == 0) {
			return int32(rng.Intn(len(gate.Ins)))
		}
		return fault.OutputPin
	}
	out := []sim.Injection{inj(pick(byKind[netlist.KInput]), fault.OutputPin)}
	for _, k := range []netlist.Kind{netlist.KTie0, netlist.KTie1} {
		if gs := byKind[k]; len(gs) > 0 && rng.Intn(2) == 0 {
			out = append(out, inj(pick(gs), fault.OutputPin))
		}
	}
	if ffs := byKind[netlist.KDFF]; len(ffs) > 0 {
		out = append(out, inj(pick(ffs), fault.OutputPin), inj(pick(ffs), netlist.DffD))
	}
	for i := rng.Intn(5); i >= 0; i-- {
		g := pick(live)
		out = append(out, inj(g, randomPin(g)))
	}
	g := pick(live)
	pin := randomPin(g)
	for i := 0; i < 3; i++ {
		out = append(out, sim.Injection{Site: fault.Site{Gate: g, Pin: pin},
			SA: logic.V(i % 2), Mask: rng.Uint64() | 1})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// injectBoth installs the same injections in the kernel and the reference,
// replacing whatever they held.
func injectBoth(s *sim.Simulator, r *refSim, injs []sim.Injection) {
	s.ClearInjections()
	r.ClearInjections()
	for _, in := range injs {
		s.AddInjection(in)
		r.AddInjection(in)
	}
}

// compareKernel checks every net value and every gate input pin's
// observation value of the kernel against the reference.
func compareKernel(t *testing.T, what string, n *netlist.Netlist, s *sim.Simulator, r *refSim) {
	t.Helper()
	for net := range n.Nets {
		if got, want := s.NetVal(netlist.NetID(net)), r.NetVal(netlist.NetID(net)); got != want {
			t.Fatalf("%s: net %q = %+v, reference %+v", what, n.Nets[net].Name, got, want)
		}
	}
	for g := range n.Gates {
		for p := range n.Gates[g].Ins {
			pt := sim.ObsPoint{Gate: netlist.GateID(g), Pin: int32(p)}
			if got, want := s.ObsVal(pt), r.ObsVal(pt); got != want {
				t.Fatalf("%s: pin %d of %q reads %+v, reference %+v", what, p, n.Gates[g].Name, got, want)
			}
		}
	}
}

// runBoth drives the kernel and the reference through the given cycles of
// random ternary inputs, replacing the injections every few cycles with
// randomInjections (and clearing them once), and compares them after every
// EvalComb and every CommitState.
func runBoth(t *testing.T, what string, rng *rand.Rand, n *netlist.Netlist, s *sim.Simulator, r *refSim, cycles int) {
	t.Helper()
	runBothDrawing(t, what, rng, n, s, r, cycles, func() []sim.Injection { return randomInjections(rng, n) })
}

// runBothDrawing is runBoth drawing each replacement injection set from draw.
func runBothDrawing(t *testing.T, what string, rng *rand.Rand, n *netlist.Netlist, s *sim.Simulator, r *refSim,
	cycles int, draw func() []sim.Injection) {
	t.Helper()
	var inputs []netlist.NetID
	for _, g := range n.PrimaryInputs() {
		inputs = append(inputs, n.Gates[g].Out)
	}
	for c := 0; c < cycles; c++ {
		switch {
		case c == cycles/2:
			injectBoth(s, r, nil)
		case c%6 == 0:
			injectBoth(s, r, draw())
		}
		for _, net := range inputs {
			v := randomPV(rng)
			s.SetInput(net, v)
			r.SetInput(net, v)
		}
		s.EvalComb()
		r.EvalComb()
		compareKernel(t, fmt.Sprintf("%s cycle %d settle", what, c), n, s, r)
		s.CommitState()
		r.CommitState()
		compareKernel(t, fmt.Sprintf("%s cycle %d commit", what, c), n, s, r)
	}
}

// TestSimulatorMatchesReference pins the compiled kernel net by net to the
// netlist walk: on seeded random sequential circuits with ties, over cycles
// of random ternary inputs under changing random injection sets, every net
// value and every pin read agrees after every settle and every clock.
func TestSimulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for seed := int64(1); seed <= 12; seed++ {
		n := kernelNetlist(t, seed)
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		runBoth(t, fmt.Sprintf("seed %d", seed), rng, n, s, mustRefSim(t, n), 24)
	}
}

// opsNetlist is a seeded random sequential circuit holding every gate shape
// the kernel compiles to an opcode of its own: AND, NAND, OR and NOR at 2 to
// 5 inputs, XOR, XNOR, BUF, NOT and MUX2, fed by both tie kinds, primary
// inputs, a DFF and a DFFR. The gates are added in a random order, each
// reading random earlier nets.
func opsNetlist(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(fmt.Sprintf("ops%d", seed))
	pool := []netlist.NetID{n.Tie0("tie0"), n.Tie1("tie1")}
	for i := 0; i < 4; i++ {
		pool = append(pool, n.Input(fmt.Sprintf("i%d", i)))
	}
	rstn := n.Input("rstn")
	q, qr := n.NewNet("q"), n.NewNet("qr")
	pool = append(pool, q, qr)

	type shape struct {
		kind netlist.Kind
		ins  int
	}
	shapes := []shape{{netlist.KXor, 2}, {netlist.KXnor, 2}, {netlist.KBuf, 1}, {netlist.KNot, 1}, {netlist.KMux2, 3}}
	for _, k := range []netlist.Kind{netlist.KAnd, netlist.KNand, netlist.KOr, netlist.KNor} {
		for ins := 2; ins <= 5; ins++ {
			shapes = append(shapes, shape{k, ins})
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	for i, sh := range shapes {
		ins := make([]netlist.NetID, sh.ins)
		for p := range ins {
			ins[p] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.Gates[n.AddGate(sh.kind, fmt.Sprintf("g%d_%v%d", i, sh.kind, sh.ins), ins...)].Out)
	}
	late := pool[len(pool)-len(shapes)/2:]
	pickLate := func() netlist.NetID { return late[rng.Intn(len(late))] }
	n.AddGateOut(netlist.KDFF, "ff", q, pickLate())
	n.AddGateOut(netlist.KDFFR, "ffr", qr, pickLate(), rstn)
	for i := 0; i < 4; i++ {
		n.OutputPort(fmt.Sprintf("o%d", i), pickLate())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSimulatorMatchesReferenceEveryOp pins every opcode and arity of the
// kernel to the netlist walk, injected and not: on circuits holding every
// gate shape (opsNetlist), each injection set adds random injections on the
// next stretch of a shuffled list of every input pin and every output of
// every gate, so over the run each of them carries an injection at least
// once, next to randomInjections' stacks.
func TestSimulatorMatchesReferenceEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for seed := int64(1); seed <= 8; seed++ {
		n := opsNetlist(t, seed)
		var sites []fault.Site
		for g := range n.Gates {
			gate := &n.Gates[g]
			for p := range gate.Ins {
				sites = append(sites, fault.Site{Gate: netlist.GateID(g), Pin: int32(p)})
			}
			if gate.Out != netlist.InvalidNet {
				sites = append(sites, fault.Site{Gate: netlist.GateID(g), Pin: fault.OutputPin})
			}
		}
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		next := 0
		draw := func() []sim.Injection {
			injs := randomInjections(rng, n)
			for i := 0; i < len(sites)/4+1; i++ {
				injs = append(injs, sim.Injection{Site: sites[next%len(sites)], SA: randomStuck(rng), Mask: rng.Uint64()})
				next++
			}
			return injs
		}
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		runBothDrawing(t, fmt.Sprintf("seed %d", seed), rng, n, s, mustRefSim(t, n), 48, draw)
		if next < len(sites) {
			t.Fatalf("seed %d: only %d of %d pins carried an injection", seed, next, len(sites))
		}
	}
}

// TestSimulatorExtendMatchesReference checks the recompile across an
// Unroller.Extend, which appends a frame and re-splices pins of old gates:
// after the extension the kernel keeps every old net's value, starts the new
// nets at X, and then agrees net by net with a reference levelized afresh on
// the extended netlist.
func TestSimulatorExtendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for seed := int64(1); seed <= 4; seed++ {
		clone := kernelNetlist(t, seed).Clone()
		ur, err := constraint.NewUnroller(clone, fault.NewSiteMap(), constraint.Unroll{Frames: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(clone)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d", seed)
		r := mustRefSim(t, clone)
		runBoth(t, what+" k=2", rng, clone, s, r, 4)
		injectBoth(s, r, nil) // Extend needs the injections clear

		oldNets := len(clone.Nets)
		if err := ur.Extend(); err != nil {
			t.Fatal(err)
		}
		order, _ := ur.AnnotationOrder()
		before := make([]logic.PV, oldNets)
		for i := range before {
			before[i] = s.NetVal(netlist.NetID(i))
		}
		if err := s.Extend(order); err != nil {
			t.Fatal(err)
		}
		r = mustRefSim(t, clone)
		for net := range clone.Nets {
			v := s.NetVal(netlist.NetID(net))
			switch {
			case net < oldNets && v != before[net]:
				t.Fatalf("%s: Extend changed net %q", what, clone.Nets[net].Name)
			case net >= oldNets && v != logic.PVAllX:
				t.Fatalf("%s: new net %q starts at %+v, want X", what, clone.Nets[net].Name, v)
			}
			r.SetInput(netlist.NetID(net), v)
		}
		runBoth(t, what+" k=3", rng, clone, s, r, 12)
	}
}
