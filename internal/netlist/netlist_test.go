package netlist

import (
	"math/rand"
	"testing"
)

// buildSmall returns a tiny circuit:
//
//	y = (a AND b) OR NOT(c);  r = DFF(y);  po reads r
func buildSmall(t *testing.T) *Netlist {
	t.Helper()
	n := New("small")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	ab := n.And("ab", a, b)
	nc := n.Not("nc", c)
	y := n.Or("y", ab, nc)
	r := n.DFF("r", y)
	n.OutputPort("po", r)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	n := buildSmall(t)
	if got := n.NumGates(); got != 8 {
		t.Errorf("NumGates = %d, want 8", got)
	}
	if len(n.PrimaryInputs()) != 3 || len(n.PrimaryOutputs()) != 1 || len(n.FlipFlops()) != 1 {
		t.Error("PI/PO/FF enumeration wrong")
	}
	id, ok := n.GateByName("ab")
	if !ok || n.Gate(id).Kind != KAnd {
		t.Error("GateByName(ab) wrong")
	}
	netID, ok := n.NetByName("y")
	if !ok || n.Net(netID).Driver == InvalidGate {
		t.Error("NetByName(y) wrong")
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	n := New("dup")
	n.Input("a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	n.Input("a")
}

func TestPinCountEnforced(t *testing.T) {
	n := New("pins")
	a := n.Input("a")
	defer func() {
		if recover() == nil {
			t.Error("AND with 1 input should panic")
		}
	}()
	n.AddGate(KAnd, "bad", a)
}

func TestLevelizeOrder(t *testing.T) {
	n := buildSmall(t)
	order, err := n.Levelize()
	if err != nil {
		t.Fatalf("Levelize: %v", err)
	}
	pos := map[GateID]int{}
	for i, g := range order {
		pos[g] = i
	}
	// Every non-source gate must appear after its combinational fanins.
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind.IsSource() || g.Kind == KDead {
			continue
		}
		for _, in := range g.Ins {
			drv := n.Net(in).Driver
			if drv == InvalidGate || n.Gate(drv).Kind.IsSource() {
				continue
			}
			if pos[drv] >= pos[GateID(i)] {
				t.Errorf("gate %q before its fanin %q", g.Name, n.Gate(drv).Name)
			}
		}
	}
}

func TestLevelizeDetectsCycle(t *testing.T) {
	n := New("cyc")
	a := n.Input("a")
	loop := n.NewNet("loop")
	g1 := n.And("g1", a, loop)
	g2 := n.AddGate(KBuf, "g2", g1)
	// Close the loop: rewire is not enough since loop has no driver; force it.
	n.Nets[loop].Driver = g2
	n.Gates[g2].Out = loop
	// g2's auto-created output net becomes stale; detach it.
	if _, err := n.Levelize(); err == nil {
		t.Error("Levelize should detect combinational cycle")
	}
}

func TestFFsBreakCycles(t *testing.T) {
	// A feedback loop through a DFF is legal.
	n := New("seqloop")
	fb := n.NewNet("fb")
	inc := n.Not("inc", fb)
	q := n.DFF("q", inc)
	// fb := q via buf
	b := n.AddGate(KBuf, "b", q)
	_ = b
	// connect fb: rewire NOT input from fb to buf output would break the test;
	// instead simulate the common pattern directly:
	n2 := New("seqloop2")
	d := n2.NewNet("d")
	q2 := n2.DFF("q2", d)
	nq := n2.Not("nq", q2)
	n2.Nets[d].Driver = n2.Nets[nq].Driver
	n2.Gates[n2.Nets[nq].Driver].Out = d
	if _, err := n2.Levelize(); err != nil {
		t.Errorf("loop through FF should levelize: %v", err)
	}
	_ = fb
}

func TestCloneIsDeepAndIdentityPreserving(t *testing.T) {
	n := buildSmall(t)
	c := n.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	if c.NumGates() != n.NumGates() || len(c.Nets) != len(n.Nets) {
		t.Fatal("clone size mismatch")
	}
	for i := range n.Gates {
		if n.Gates[i].Name != c.Gates[i].Name || n.Gates[i].Kind != c.Gates[i].Kind {
			t.Fatalf("gate %d identity not preserved", i)
		}
	}
	// Mutating the clone must not touch the original.
	id, _ := c.GateByName("ab")
	c.KillGate(id)
	if n.Gates[id].Kind == KDead {
		t.Error("KillGate on clone mutated original")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("original corrupted: %v", err)
	}
}

func TestKillGateAndUndriven(t *testing.T) {
	n := buildSmall(t)
	id, _ := n.GateByName("nc")
	n.KillGate(id)
	// The OR gate now reads an undriven net.
	und := n.UndrivenReadNets()
	if len(und) != 1 || n.Net(und[0]).Name != "nc" {
		t.Errorf("UndrivenReadNets = %v", und)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate after KillGate: %v", err)
	}
	if n.NumGates() != 7 {
		t.Errorf("NumGates after kill = %d, want 7", n.NumGates())
	}
}

func TestRewirePin(t *testing.T) {
	n := buildSmall(t)
	tie := n.AddSyntheticTie("tie0", false)
	orID, _ := n.GateByName("y")
	n.RewirePin(Pin{orID, 1}, tie)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after rewire: %v", err)
	}
	if n.Gate(orID).Ins[1] != tie {
		t.Error("pin not rewired")
	}
	// Old net "nc" must have lost the fanout entry.
	ncNet, _ := n.NetByName("nc")
	for _, p := range n.Net(ncNet).Fanout {
		if p.Gate == orID {
			t.Error("stale fanout entry after rewire")
		}
	}
}

func TestSyntheticExcludedFromFaultPins(t *testing.T) {
	n := buildSmall(t)
	before := n.CollectStats().FaultPins
	n.AddSyntheticTie("t0", false)
	after := n.CollectStats().FaultPins
	if before != after {
		t.Errorf("synthetic tie changed fault pins: %d -> %d", before, after)
	}
	n.Tie1("realtie")
	if n.CollectStats().FaultPins != before+1 {
		t.Error("real tie should add one fault pin")
	}
}

func TestCones(t *testing.T) {
	n := buildSmall(t)
	y, _ := n.NetByName("y")
	fanin := n.FaninCone(true, y)
	for _, name := range []string{"a", "b", "c", "ab", "nc", "y"} {
		id, _ := n.GateByName(name)
		if !fanin[id] {
			t.Errorf("fanin cone of y missing %q", name)
		}
	}
	// The output reads the flip-flop r: the sequential cone crosses it into
	// the logic behind it, the combinational cone stops at r itself.
	rq, _ := n.NetByName("r")
	seqCone, combCone := n.FaninCone(true, rq), n.FaninCone(false, rq)
	for _, name := range []string{"r", "y", "ab", "nc", "a", "b", "c"} {
		id, _ := n.GateByName(name)
		if !seqCone[id] {
			t.Errorf("sequential fanin cone of r missing %q", name)
		}
		if combCone[id] != (name == "r") {
			t.Errorf("combinational fanin cone of r: %q in cone = %v", name, combCone[id])
		}
	}
}

func TestStats(t *testing.T) {
	n := buildSmall(t)
	s := n.CollectStats()
	// pins: a,b,c out(3) + ab(2+1) + nc(1+1) + y(2+1) + r(1+1) + po(1) = 14
	if s.FaultPins != 14 {
		t.Errorf("FaultPins = %d, want 14", s.FaultPins)
	}
	if s.NumFaults() != 28 {
		t.Errorf("NumFaults = %d, want 28", s.NumFaults())
	}
	if s.FFs != 1 || s.PIs != 3 || s.POs != 1 {
		t.Error("stats counts wrong")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

// TestRandomDAGLevelize property: random DAGs always levelize, and order
// respects dependencies.
func TestRandomDAGLevelize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := New("rand")
		nets := []NetID{n.Input("i0"), n.Input("i1"), n.Input("i2")}
		for g := 0; g < 60; g++ {
			a := nets[rng.Intn(len(nets))]
			b := nets[rng.Intn(len(nets))]
			var out NetID
			switch rng.Intn(5) {
			case 0:
				out = n.And("", a, b)
			case 1:
				out = n.Or("", a, b)
			case 2:
				out = n.Xor("", a, b)
			case 3:
				out = n.Not("", a)
			case 4:
				out = n.DFF("", a)
			}
			nets = append(nets, out)
		}
		n.OutputPort("po", nets[len(nets)-1])
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
