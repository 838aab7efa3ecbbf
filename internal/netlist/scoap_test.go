package netlist

import "testing"

func TestAnnotateBasics(t *testing.T) {
	n := New("scoap")
	a := n.Input("a")
	b := n.Input("b")
	y := n.And("y", a, b)
	z := n.Not("z", y)
	n.OutputPort("po", z)
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Level[a] != 0 || ann.Level[y] != 1 || ann.Level[z] != 2 {
		t.Errorf("levels = a:%d y:%d z:%d, want 0/1/2", ann.Level[a], ann.Level[y], ann.Level[z])
	}
	// SCOAP: PI CC = 1; AND: CC0 = min(1,1)+1 = 2, CC1 = 1+1+1 = 3;
	// NOT flips: CC0(z) = CC1(y)+1 = 4, CC1(z) = CC0(y)+1 = 3.
	if ann.CC0[y] != 2 || ann.CC1[y] != 3 {
		t.Errorf("AND CC = (%d,%d), want (2,3)", ann.CC0[y], ann.CC1[y])
	}
	if ann.CC0[z] != 4 || ann.CC1[z] != 3 {
		t.Errorf("NOT CC = (%d,%d), want (4,3)", ann.CC0[z], ann.CC1[z])
	}
	// Observability: z feeds the PO directly (CO 0); y through the NOT
	// (CO 1); a through the AND needs b=1 (CO 1+1+... = 0+1+1? CO(a) =
	// CO(y) + CC1(b) + 1 = 1 + 1 + 1 = 3).
	if ann.CO[z] != 0 || ann.CO[y] != 1 || ann.CO[a] != 3 {
		t.Errorf("CO = z:%d y:%d a:%d, want 0/1/3", ann.CO[z], ann.CO[y], ann.CO[a])
	}
}

func TestAnnotateTieAndUnreachable(t *testing.T) {
	n := New("ties")
	zero := n.Tie0("zero")
	a := n.Input("a")
	y := n.And("y", a, zero) // constant 0
	n.OutputPort("po", y)
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	if ann.CC0[zero] != 0 || ann.CC1[zero] != CostInf {
		t.Errorf("tie-0 CC = (%d,%d), want (0, CostInf)", ann.CC0[zero], ann.CC1[zero])
	}
	// y can never be 1: CC1 saturates at CostInf.
	if ann.CC1[y] != CostInf {
		t.Errorf("constant-0 AND CC1 = %d, want CostInf", ann.CC1[y])
	}
	if ann.CC0[y] != 1 {
		t.Errorf("constant-0 AND CC0 = %d, want 1", ann.CC0[y])
	}
	// a is observable only through y, which needs the tie at 1: CostInf.
	if ann.CO[a] != CostInf {
		t.Errorf("CO[a] = %d, want CostInf", ann.CO[a])
	}
}

func TestAnnotateMuxAndDFF(t *testing.T) {
	n := New("muxdff")
	d0 := n.Input("d0")
	d1 := n.Input("d1")
	s := n.Input("s")
	y := n.Mux2("y", d0, d1, s)
	q := n.DFF("q", y)
	n.OutputPort("po", q)
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	// Mux CC0 = min(s0+d0_0, s1+d1_0)+1 = min(1+1, 1+1)+1 = 3.
	if ann.CC0[y] != 3 || ann.CC1[y] != 3 {
		t.Errorf("mux CC = (%d,%d), want (3,3)", ann.CC0[y], ann.CC1[y])
	}
	// The DFF D pin is an observation point: CO(y) = 0. The FF output is a
	// pseudo-input: CC = 1.
	if ann.CO[y] != 0 {
		t.Errorf("CO at DFF D pin net = %d, want 0", ann.CO[y])
	}
	if ann.CC0[q] != 1 || ann.CC1[q] != 1 {
		t.Errorf("FF output CC = (%d,%d), want (1,1)", ann.CC0[q], ann.CC1[q])
	}
}

// appendStage mimics one step of an append-and-rewire manipulation (the shape
// constraint.Unroller.Extend produces): append a synthetic input and a gate
// stage, then rewire an existing buffer's input onto the new stage's output.
// Returns the new full topological order and the index the appended/dirty
// suffix starts at.
func appendStage(n *Netlist, prevOrder []GateID, step int) ([]GateID, int) {
	in := n.AddSyntheticInput("x" + string(rune('a'+step)))
	g := n.AddSyntheticGate(KAnd, "stage"+string(rune('a'+step)), in, n.Gates[0].Out)
	spl, _ := n.GateByName("splice")
	n.RewirePin(Pin{Gate: spl, In: 0}, n.Gates[g].Out)
	// New order: the appended gate first, then everything downstream of the
	// rewired splice (here: the whole previous order, which contains only
	// the splice and its downstream cone plus clean prefix gates).
	order := append([]GateID{g}, prevOrder...)
	return order, 0
}

// TestAnnotateAppendedMatchesFull pins that the append-aware update is
// value-identical to a from-scratch Annotate after appended gates and a
// rewired pin, across two successive steps.
func TestAnnotateAppendedMatchesFull(t *testing.T) {
	n := New("append")
	a := n.Input("a")
	b := n.Input("b")
	y := n.And("y", a, b)
	// A buffer whose input will be re-driven each step, feeding a small cone.
	spl := n.AddGate(KBuf, "splice", a)
	z := n.Or("z", n.Gates[spl].Out, y)
	n.OutputPort("po", z)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	order := append([]GateID(nil), ann.Order()...)
	for step := 0; step < 2; step++ {
		var from int
		order, from = appendStage(n, order, step)
		ann, err = n.AnnotateAppended(ann, order, from)
		if err != nil {
			t.Fatal(err)
		}
		full, err := n.Annotate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range n.Nets {
			id := NetID(i)
			if ann.Level[id] != full.Level[id] || ann.CC0[id] != full.CC0[id] ||
				ann.CC1[id] != full.CC1[id] || ann.CO[id] != full.CO[id] {
				t.Fatalf("step %d net %q: incremental (%d,%d,%d,%d) != full (%d,%d,%d,%d)",
					step, n.Nets[i].Name,
					ann.Level[id], ann.CC0[id], ann.CC1[id], ann.CO[id],
					full.Level[id], full.CC0[id], full.CC1[id], full.CO[id])
			}
		}
	}
}

// TestAnnotateAppendedContractErrors pins the guard rails: nil previous
// annotations, an out-of-range recompute index, and an order that does not
// cover the live combinational gates are all rejected.
func TestAnnotateAppendedContractErrors(t *testing.T) {
	n := New("guards")
	a := n.Input("a")
	y := n.Not("y", a)
	n.OutputPort("po", y)
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	order := ann.Order()
	if _, err := n.AnnotateAppended(nil, order, 0); err == nil {
		t.Error("nil prev: want error")
	}
	if _, err := n.AnnotateAppended(ann, order, len(order)+1); err == nil {
		t.Error("out-of-range index: want error")
	}
	if _, err := n.AnnotateAppended(ann, order[:1], 0); err == nil {
		t.Error("short order: want error")
	}
}
