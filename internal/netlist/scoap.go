package netlist

import "fmt"

// Testability annotations: per-net logic levels, fanout classification and
// SCOAP-lite controllability/observability measures. The ATPG engine uses
// them to pick backtrace paths (easiest/hardest input) and to choose which
// D-frontier gate to advance (lowest observability first); they are also a
// cheap static signal for reporting which regions of a design are hard to
// test.

// CostInf is the saturating "unreachable" testability cost: a net that cannot
// be set to a value (e.g. a tie-0 net to 1) carries CostInf. Sums saturate at
// CostInf so comparisons stay meaningful.
const CostInf int32 = 1 << 28

// SatAdd adds two testability costs, saturating at CostInf.
func SatAdd(a, b int32) int32 {
	s := a + b
	if s >= CostInf || s < 0 {
		return CostInf
	}
	return s
}

// Annotations carries the per-net testability measures of one netlist.
type Annotations struct {
	// Level[net] is the combinational depth of the net's driver: 0 for
	// source-driven nets (primary inputs, ties, flip-flop outputs),
	// 1 + max(input levels) for gate-driven nets.
	Level []int32
	// CC0[net] / CC1[net] are SCOAP-lite 0- and 1-controllabilities: the
	// number of pin assignments needed to force the net to 0 / 1, CostInf
	// if impossible.
	CC0, CC1 []int32
	// CO[net] is the SCOAP-lite observability: the cost of propagating the
	// net's value to an observation point (primary-output input pin or
	// flip-flop D pin), CostInf if no structural path exists.
	CO []int32
	// FanoutCnt[net] is the number of input pins reading the net; nets with
	// FanoutCnt > 1 are fanout stems, where fault effects reconverge.
	FanoutCnt []int32

	order []GateID
}

// Order returns the levelized gate order the annotations were computed on.
func (a *Annotations) Order() []GateID { return a.order }

// CCOf returns the controllability of net toward value one (true) or zero.
func (a *Annotations) CCOf(net NetID, one bool) int32 {
	if one {
		return a.CC1[net]
	}
	return a.CC0[net]
}

// Annotate computes testability annotations for the netlist. It fails only if
// the netlist does not levelize.
func (n *Netlist) Annotate() (*Annotations, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	a := &Annotations{
		Level:     make([]int32, len(n.Nets)),
		CC0:       make([]int32, len(n.Nets)),
		CC1:       make([]int32, len(n.Nets)),
		CO:        make([]int32, len(n.Nets)),
		FanoutCnt: make([]int32, len(n.Nets)),
		order:     order,
	}
	for i := range n.Nets {
		a.CC0[i], a.CC1[i] = CostInf, CostInf
	}
	a.initSources(n)
	a.forward(n, order)
	a.finish(n, order)
	return a, nil
}

// AnnotateAppended updates testability annotations after an append-and-rewire
// manipulation (e.g. one constraint.Unroller.Extend): gates and nets were
// appended and some existing input pins rewired, without renumbering — the
// identity contract. The caller supplies a full topological order of the live
// combinational gates and the index of the first order entry whose output
// net's level or controllability may differ from prev; everything before
// `from` must drive nets whose forward annotations are unchanged (source nets
// included), which is what lets a depth sweep amortize the forward SCOAP pass
// across depths: old frames keep their values, and only the appended frame
// plus the re-spliced final frame are recomputed.
//
// Observability has no such clean prefix — a re-spliced state chain shifts
// CO throughout the appended logic — so the backward pass always runs over
// the whole order; it is pure array arithmetic, and the saving over Annotate
// is skipping Levelize and the clean prefix's forward recomputation. The
// result is value-identical to a fresh Annotate (the measures are the unique
// fixpoint on the DAG, independent of which topological order computes them);
// prev is not mutated, so engines sharing it keep a consistent snapshot.
func (n *Netlist) AnnotateAppended(prev *Annotations, order []GateID, from int) (*Annotations, error) {
	if prev == nil {
		return nil, fmt.Errorf("netlist %q: AnnotateAppended needs previous annotations", n.Name)
	}
	if from < 0 || from > len(order) {
		return nil, fmt.Errorf("netlist %q: recompute index %d outside order of %d gates",
			n.Name, from, len(order))
	}
	want := 0
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind != KDead && !g.Kind.IsSource() {
			want++
		}
	}
	if len(order) != want {
		return nil, fmt.Errorf("netlist %q: order covers %d gates, netlist has %d live combinational gates",
			n.Name, len(order), want)
	}
	a := &Annotations{
		Level:     make([]int32, len(n.Nets)),
		CC0:       make([]int32, len(n.Nets)),
		CC1:       make([]int32, len(n.Nets)),
		CO:        make([]int32, len(n.Nets)),
		FanoutCnt: make([]int32, len(n.Nets)),
		order:     order,
	}
	// Forward prefix: carry the previous values; the recompute suffix below
	// overwrites every net whose level or controllability can have changed.
	old := len(prev.Level)
	copy(a.Level, prev.Level)
	copy(a.CC0, prev.CC0)
	copy(a.CC1, prev.CC1)
	for i := old; i < len(n.Nets); i++ {
		a.CC0[i], a.CC1[i] = CostInf, CostInf
	}
	a.initSources(n)
	a.forward(n, order[from:])
	a.finish(n, order)
	return a, nil
}

// initSources seeds source-net controllabilities. Re-seeding nets carried
// over from previous annotations is idempotent: source costs are constants.
func (a *Annotations) initSources(n *Netlist) {
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Out == InvalidNet {
			continue
		}
		switch g.Kind {
		case KInput, KDFF, KDFFR:
			a.CC0[g.Out], a.CC1[g.Out] = 1, 1
		case KTie0:
			a.CC0[g.Out] = 0
		case KTie1:
			a.CC1[g.Out] = 0
		}
	}
}

// forward computes levels and controllability for the gates of order, which
// must be (a suffix of) a topological order whose earlier nets carry final
// values already.
func (a *Annotations) forward(n *Netlist, order []GateID) {
	for _, gid := range order {
		g := &n.Gates[gid]
		if g.Out == InvalidNet {
			continue
		}
		var lvl int32
		for _, in := range g.Ins {
			if a.Level[in] >= lvl {
				lvl = a.Level[in] + 1
			}
		}
		a.Level[g.Out] = lvl
		a.CC0[g.Out], a.CC1[g.Out] = a.gateCC(n, g)
	}
}

// finish fills fanout counts and runs the full backward observability pass.
func (a *Annotations) finish(n *Netlist, order []GateID) {
	for i := range n.Nets {
		a.CO[i] = CostInf
		a.FanoutCnt[i] = int32(len(n.Nets[i].Fanout))
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Kind {
		case KOutput:
			a.CO[g.Ins[0]] = 0
		case KDFF, KDFFR:
			a.CO[g.Ins[DffD]] = 0
		}
	}
	for oi := len(order) - 1; oi >= 0; oi-- {
		g := &n.Gates[order[oi]]
		if g.Out == InvalidNet || g.Kind == KOutput {
			continue
		}
		outCO := a.CO[g.Out]
		if outCO == CostInf {
			continue
		}
		for p, in := range g.Ins {
			co := SatAdd(outCO, a.pinSideCost(n, g, p))
			if co < a.CO[in] {
				a.CO[in] = co
			}
		}
	}
}

// gateCC returns (CC0, CC1) of a combinational gate's output net.
func (a *Annotations) gateCC(n *Netlist, g *Gate) (int32, int32) {
	in := func(p int) (int32, int32) { return a.CC0[g.Ins[p]], a.CC1[g.Ins[p]] }
	switch g.Kind {
	case KBuf:
		c0, c1 := in(0)
		return SatAdd(c0, 1), SatAdd(c1, 1)
	case KNot:
		c0, c1 := in(0)
		return SatAdd(c1, 1), SatAdd(c0, 1)
	case KAnd, KNand:
		minC0, sumC1 := CostInf, int32(0)
		for p := range g.Ins {
			c0, c1 := in(p)
			if c0 < minC0 {
				minC0 = c0
			}
			sumC1 = SatAdd(sumC1, c1)
		}
		if g.Kind == KNand {
			return SatAdd(sumC1, 1), SatAdd(minC0, 1)
		}
		return SatAdd(minC0, 1), SatAdd(sumC1, 1)
	case KOr, KNor:
		sumC0, minC1 := int32(0), CostInf
		for p := range g.Ins {
			c0, c1 := in(p)
			sumC0 = SatAdd(sumC0, c0)
			if c1 < minC1 {
				minC1 = c1
			}
		}
		if g.Kind == KNor {
			return SatAdd(minC1, 1), SatAdd(sumC0, 1)
		}
		return SatAdd(sumC0, 1), SatAdd(minC1, 1)
	case KXor, KXnor:
		a0, a1 := in(0)
		b0, b1 := in(1)
		eq := min32(SatAdd(a0, b0), SatAdd(a1, b1))
		ne := min32(SatAdd(a0, b1), SatAdd(a1, b0))
		if g.Kind == KXnor {
			return SatAdd(ne, 1), SatAdd(eq, 1)
		}
		return SatAdd(eq, 1), SatAdd(ne, 1)
	case KMux2:
		d00, d01 := in(MuxD0)
		d10, d11 := in(MuxD1)
		s0, s1 := in(MuxS)
		c0 := min32(SatAdd(s0, d00), SatAdd(s1, d10))
		c1 := min32(SatAdd(s0, d01), SatAdd(s1, d11))
		return SatAdd(c0, 1), SatAdd(c1, 1)
	}
	panic(fmt.Sprintf("netlist: no controllability rule for %v gate %q", g.Kind, g.Name))
}

// pinSideCost is the cost of sensitizing input pin p of gate g: the cost of
// holding every other input at a value that lets pin p's value through.
func (a *Annotations) pinSideCost(n *Netlist, g *Gate, p int) int32 {
	var cost int32
	switch g.Kind {
	case KBuf, KNot:
		return 1
	case KAnd, KNand:
		for q, in := range g.Ins {
			if q != p {
				cost = SatAdd(cost, a.CC1[in])
			}
		}
		return SatAdd(cost, 1)
	case KOr, KNor:
		for q, in := range g.Ins {
			if q != p {
				cost = SatAdd(cost, a.CC0[in])
			}
		}
		return SatAdd(cost, 1)
	case KXor, KXnor:
		other := g.Ins[1-p]
		return SatAdd(min32(a.CC0[other], a.CC1[other]), 1)
	case KMux2:
		switch p {
		case MuxD0:
			return SatAdd(a.CC0[g.Ins[MuxS]], 1)
		case MuxD1:
			return SatAdd(a.CC1[g.Ins[MuxS]], 1)
		default: // select: need the data inputs to differ
			d0, d1 := g.Ins[MuxD0], g.Ins[MuxD1]
			return SatAdd(min32(
				SatAdd(a.CC0[d0], a.CC1[d1]),
				SatAdd(a.CC1[d0], a.CC0[d1])), 1)
		}
	}
	panic(fmt.Sprintf("netlist: no observability rule for %v gate %q", g.Kind, g.Name))
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
