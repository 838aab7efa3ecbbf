package atpg

import (
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// objDemand accumulates multiple-backtrace objective counts at one net or
// input: n0 objectives want the value 0, n1 want 1.
type objDemand struct {
	n0, n1 int32
}

func (d objDemand) total() int32 { return d.n0 + d.n1 }

// backtrace maps an objective to a concrete input assignment using multiple
// backtrace: the objective is pushed level by level from its net down through
// every unassigned (good-X) path toward the controllable inputs, splitting at
// gates per the classic rules — a controlling demand follows the
// easiest-to-control X input, a noncontrolling demand fans out to all X
// inputs — and the input with the highest accumulated demand wins. Returns
// the assignable index and value, or ok=false if no unassigned input is
// reachable (a conflict).
//
// Per-net demand lives in netDemand, valid where visited carries this call's
// epoch (backtrace and the X-path DFS never nest), so a call allocates
// nothing and clears nothing but the per-input tallies.
func (e *Engine) backtrace(obj objective) (int32, logic.V, bool) {
	if obj.direct {
		return e.pIdx[obj.net], obj.v, true
	}
	for i := range e.demand {
		e.demand[i] = objDemand{}
	}
	for l := range e.buckets {
		e.buckets[l] = e.buckets[l][:0]
	}
	e.nextEpoch()
	seed := objDemand{n0: 1}
	if obj.v == logic.One {
		seed = objDemand{n1: 1}
	}
	e.send(obj.net, seed)

	for lvl := len(e.buckets) - 1; lvl >= 1; lvl-- {
		for _, net := range e.buckets[lvl] {
			e.distribute(net, e.netDemand[net])
		}
	}

	best, bestTotal := int32(-1), int32(0)
	for i := range e.demand {
		if t := e.demand[i].total(); t > bestTotal {
			best, bestTotal = int32(i), t
		}
	}
	if best < 0 {
		return 0, logic.X, false
	}
	v := logic.Zero
	if e.demand[best].n1 > e.demand[best].n0 {
		v = logic.One
	}
	return best, v, true
}

// send adds objective demand at a net whose good value is still unknown: an
// input's demand counts toward its vote, a gate-driven net's demand waits in
// its level bucket for distribute.
func (e *Engine) send(net netlist.NetID, d objDemand) {
	if d.total() == 0 || e.val[net].Good.IsKnown() {
		return
	}
	if idx := e.pIdx[net]; idx >= 0 {
		e.demand[idx].n0 += d.n0
		e.demand[idx].n1 += d.n1
		return
	}
	if e.visited[net] != e.visitEp {
		e.visited[net] = e.visitEp
		e.netDemand[net] = objDemand{}
		e.buckets[e.ann.Level[net]] = append(e.buckets[e.ann.Level[net]], net)
	}
	e.netDemand[net].n0 += d.n0
	e.netDemand[net].n1 += d.n1
}

// distribute pushes the demand at a gate-driven net down to the gate's
// inputs.
func (e *Engine) distribute(net netlist.NetID, d objDemand) {
	drv := e.n.Nets[net].Driver
	if drv == netlist.InvalidGate {
		return
	}
	g := &e.n.Gates[drv]
	switch g.Kind {
	case netlist.KBuf:
		e.send(g.Ins[0], d)
	case netlist.KNot:
		e.send(g.Ins[0], objDemand{n0: d.n1, n1: d.n0})
	case netlist.KNand:
		e.distAnd(g, objDemand{n0: d.n1, n1: d.n0})
	case netlist.KAnd:
		e.distAnd(g, d)
	case netlist.KNor:
		e.distOr(g, objDemand{n0: d.n1, n1: d.n0})
	case netlist.KOr:
		e.distOr(g, d)
	case netlist.KXor, netlist.KXnor:
		if g.Kind == netlist.KXnor {
			d = objDemand{n0: d.n1, n1: d.n0}
		}
		a, b := g.Ins[0], g.Ins[1]
		switch {
		case e.val[a].Good.IsKnown():
			if e.val[a].Good == logic.One {
				d = objDemand{n0: d.n1, n1: d.n0}
			}
			e.send(b, d)
		case e.val[b].Good.IsKnown():
			if e.val[b].Good == logic.One {
				d = objDemand{n0: d.n1, n1: d.n0}
			}
			e.send(a, d)
		default:
			// Both free: assume the partner resolves to 0, so each
			// input inherits the output demand unchanged. Consistent
			// votes matter more than the particular assumption.
			e.send(a, d)
			e.send(b, d)
		}
	case netlist.KMux2:
		e.distMux(g, d)
	}
}

// distAnd applies the AND rules: output-0 demand follows the easiest-to-0 X
// input, output-1 demand fans out to every X input.
func (e *Engine) distAnd(g *netlist.Gate, d objDemand) {
	if d.n0 > 0 {
		if in, ok := e.easiestXInput(g, false); ok {
			e.send(in, objDemand{n0: d.n0})
		}
	}
	if d.n1 > 0 {
		for _, in := range g.Ins {
			e.send(in, objDemand{n1: d.n1})
		}
	}
}

// distOr applies the OR rules: output-1 demand follows the easiest-to-1 X
// input, output-0 demand fans out to every X input.
func (e *Engine) distOr(g *netlist.Gate, d objDemand) {
	if d.n1 > 0 {
		if in, ok := e.easiestXInput(g, true); ok {
			e.send(in, objDemand{n1: d.n1})
		}
	}
	if d.n0 > 0 {
		for _, in := range g.Ins {
			e.send(in, objDemand{n0: d.n0})
		}
	}
}

// distMux routes demand through a 2:1 mux: with the select known the demand
// follows the selected data input; otherwise it takes the cheaper of the two
// (select, data) sensitizations per demanded value.
func (e *Engine) distMux(g *netlist.Gate, d objDemand) {
	sNet := g.Ins[netlist.MuxS]
	d0Net, d1Net := g.Ins[netlist.MuxD0], g.Ins[netlist.MuxD1]
	if sv := e.val[sNet].Good; sv.IsKnown() {
		if sv == logic.Zero {
			e.send(d0Net, d)
		} else {
			e.send(d1Net, d)
		}
		return
	}
	route := func(n int32, one bool) {
		if n == 0 {
			return
		}
		dd := objDemand{n0: n}
		if one {
			dd = objDemand{n1: n}
		}
		c0 := netlist.SatAdd(e.ann.CC0[sNet], e.ann.CCOf(d0Net, one))
		c1 := netlist.SatAdd(e.ann.CC1[sNet], e.ann.CCOf(d1Net, one))
		if c0 <= c1 {
			e.send(sNet, objDemand{n0: n})
			e.send(d0Net, dd)
		} else {
			e.send(sNet, objDemand{n1: n})
			e.send(d1Net, dd)
		}
	}
	route(d.n0, false)
	route(d.n1, true)
}

// easiestXInput returns the good-X input with the lowest controllability
// toward the given value.
func (e *Engine) easiestXInput(g *netlist.Gate, one bool) (netlist.NetID, bool) {
	best, bestCC := netlist.InvalidNet, netlist.CostInf+1
	for _, in := range g.Ins {
		if e.val[in].Good.IsKnown() {
			continue
		}
		if cc := e.ann.CCOf(in, one); cc < bestCC {
			best, bestCC = in, cc
		}
	}
	return best, best != netlist.InvalidNet
}
