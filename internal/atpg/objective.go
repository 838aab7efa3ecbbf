package atpg

import (
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// objective is the next value goal of the search: drive net to value v (in
// the good machine). An objective with direct=true names an assignable input
// and bypasses backtrace.
type objective struct {
	net    netlist.NetID
	v      logic.V
	direct bool
}

// nextObjectives derives candidate objectives from the implied circuit
// state, in preference order; an empty slice reports a conflict — the
// current partial assignment provably cannot be extended to a detection of
// the joint injection. Generate assigns the first candidate whose backtrace
// reaches a free input; the later candidates keep the search alive when an
// earlier objective turns out uncontrollable, which matters for multi-site
// injections: failing to drive one replica site must not condemn the others.
//
// Errors (D/D̄) originate only at injection sites — a gate output can carry
// an error only if an input does, or the output itself is a site with an
// activated good value — so the conflict rules stay sound proofs:
//
//   - a site whose good value is known equal to the stuck value can never
//     diverge (implication is monotone: known values are final);
//   - a not-yet-activated site without an X-path to an observation point can
//     diverge, but never detectably;
//   - an effect on a deselected mux data pin (see deselected) never reaches
//     the mux output, so such a pin neither opens a site's path, nor puts
//     the mux on the D-frontier, nor extends an X-path;
//   - once every site is dead or blocked and the D-frontier has no X-path
//     left, no extension of the assignment detects the injection.
func (e *Engine) nextObjectives() []objective {
	e.objs = e.objs[:0]
	// Phase 1: no site carries an error yet, hence the faulty machine has
	// not diverged anywhere. The next goal is activating a site: driving its
	// good-machine value to the complement of the stuck value — but only
	// sites with an open propagation path are worth activating (this is
	// what proves faults in unobservable cones, such as a dropped
	// carry-out, untestable in constant time).
	anyErr := false
	for i := range e.siteVals {
		if e.siteVals[i].IsError() {
			anyErr = true
			break
		}
	}
	if !anyErr {
		return e.appendActivations()
	}
	// Phase 2: a fault effect is in flight. Advance the D-frontier.
	e.computeFrontier()
	if len(e.dfront) > 0 {
		e.roots = e.roots[:0]
		for _, gid := range e.dfront {
			e.roots = append(e.roots, e.n.Gates[gid].Out)
		}
		if e.xPathFrom(e.roots) {
			for _, gid := range e.dfront {
				if obj, ok := e.gateObjective(gid); ok {
					e.objs = append(e.objs, obj)
					break
				}
			}
			if len(e.objs) == 0 {
				// No frontier gate offers a direct good-machine objective
				// (this arises with composite values such as (0,X), where
				// propagation hinges on the faulty machine alone). Fall back
				// to assigning any free input: the decision tree still
				// covers the full search space, so soundness and
				// completeness are preserved, only heuristic quality drops.
				// Dead (fanout-free) inputs are skipped: they cannot
				// influence any net, so decisions on them would only double
				// the subtree per dead input.
				for i, v := range e.assigns {
					if v == logic.X && !e.deadIn[i] {
						val := logic.Zero
						if e.ann.CC1[e.assignable[i]] < e.ann.CC0[e.assignable[i]] {
							val = logic.One
						}
						e.objs = append(e.objs, objective{net: e.assignable[i], v: val, direct: true})
						break
					}
				}
			}
		}
	}
	// Not-yet-activated sites are alternative error origins: activating one
	// can open a fresh propagation path when the current frontier is blocked
	// or exhausted. For a classical single-site fault no open site remains
	// after activation, so this preserves the original PODEM behavior.
	return e.appendActivations()
}

// appendActivations adds an activation objective for every site whose good
// value is still unknown and whose local propagation path is open, returning
// the candidate list. Sites with a known good value need no candidate: known
// equal to the stuck value means the site can never diverge, known different
// means it already carries an error and the D-frontier owns propagation.
func (e *Engine) appendActivations() []objective {
	for i := range e.inj.Sites {
		if e.siteVals[i].Good.IsKnown() {
			continue
		}
		if e.sitePathOpenAt(i) {
			e.objs = append(e.objs, objective{net: e.siteNets[i], v: e.sa.Not()})
		}
	}
	return e.objs
}

// computeFrontier collects the D-frontier: gates with at least one fault
// effect on an input that is not deselected and an output that can still
// evolve (carries an X component), sorted most-observable first (lowest
// SCOAP CO). Only F gates can read a fault effect, so the scan covers F
// alone; the insertion sort is stable, so equal-CO gates keep their
// levelized order.
func (e *Engine) computeFrontier() {
	e.dfront = e.dfront[:0]
	for _, gid := range e.coneF {
		g := &e.n.Gates[gid]
		if !e.val[g.Out].HasX() {
			continue
		}
		for p := range g.Ins {
			if e.pinVal(gid, g, p).IsError() && !e.deselected(gid, g, p) {
				e.dfront = append(e.dfront, gid)
				break
			}
		}
	}
	for i := 1; i < len(e.dfront); i++ {
		gid := e.dfront[i]
		co := e.ann.CO[e.n.Gates[gid].Out]
		j := i
		for ; j > 0 && e.ann.CO[e.n.Gates[e.dfront[j-1]].Out] > co; j-- {
			e.dfront[j] = e.dfront[j-1]
		}
		e.dfront[j] = gid
	}
}

// observable reports whether a gate input pin is one of the engine's
// observation points.
func (e *Engine) observable(g netlist.GateID, pin int32) bool {
	if pin < 64 {
		return e.obsMask[g]&(1<<uint(pin)) != 0
	}
	return e.obsPin[netlist.Pin{Gate: g, In: pin}]
}

// deselected reports whether input pin p of gate g is a 2:1 mux data pin
// that the select steers away from in both machines: the select, read
// through the injection, is known, equal in the good and the faulty machine,
// and picks the other data pin. Both machines' outputs then follow that other
// pin, whatever p carries, and implication is monotone, so no extension of
// the assignment lets an effect on p cross the mux. A select that carries an
// error or a faulty X (an injection site on it, or an effect reaching it)
// never blocks.
func (e *Engine) deselected(gid netlist.GateID, g *netlist.Gate, p int) bool {
	if g.Kind != netlist.KMux2 || p == netlist.MuxS {
		return false
	}
	s := e.pinVal(gid, g, netlist.MuxS)
	if !s.Good.IsKnown() || s.Faulty != s.Good {
		return false
	}
	return (s.Good == logic.One) == (p == netlist.MuxD0)
}

// sitePathOpenAt reports whether injection site i (not yet activated) still
// has an X-path to an observation point. Before a site activates, no error
// originating there is in the circuit, so any eventual detection path through
// it must currently consist of X-bearing nets starting at the site; a blocked
// site proves that site cannot contribute a detection under the current
// assignment without searching activations.
func (e *Engine) sitePathOpenAt(i int) bool {
	s := e.inj.Sites[i]
	g := &e.n.Gates[s.Gate]
	if s.Pin != fault.OutputPin {
		// A pin fault propagates only through its own gate; the pin may
		// itself be an observation point.
		if e.observable(s.Gate, s.Pin) {
			return true
		}
		switch g.Kind {
		case netlist.KOutput, netlist.KDFF, netlist.KDFFR:
			// No combinational output to propagate through; only the pin
			// itself (checked above) could have observed the fault.
			return false
		}
		if g.Out == netlist.InvalidNet || !e.val[g.Out].HasX() || e.deselected(s.Gate, g, int(s.Pin)) {
			return false
		}
		return e.xPathFrom([]netlist.NetID{g.Out})
	}
	return e.xPathFrom([]netlist.NetID{e.siteNets[i]})
}

// xPathFrom reports whether any root net still has a path of X-bearing nets
// to an observation point. Implication is monotone, so a missing X-path
// proves the fault effect can never reach that observation point under the
// current assignment. Only pins in the engine's observation set terminate the
// search: under restricted observability (e.g. output-only, or a subset of
// outputs) a path into an unobserved flip-flop or output is a dead end.
func (e *Engine) xPathFrom(roots []netlist.NetID) bool {
	// Epoch stamps make "visited" reset O(1) and the stack is engine-owned:
	// this DFS runs once or more per decision step, so it must not clear an
	// O(nets) array or allocate.
	ep := e.nextEpoch()
	stack := e.xstack[:0]
	defer func() { e.xstack = stack[:0] }()
	for _, net := range roots {
		if e.visited[net] != ep {
			e.visited[net] = ep
			stack = append(stack, net)
		}
	}
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range e.n.Nets[net].Fanout {
			if e.observable(p.Gate, p.In) {
				return true
			}
			g := &e.n.Gates[p.Gate]
			switch g.Kind {
			case netlist.KOutput, netlist.KDFF, netlist.KDFFR, netlist.KDead:
				// Fault effects stop here; observability was decided by
				// the pin check above.
				continue
			}
			if g.Out == netlist.InvalidNet || e.visited[g.Out] == ep || !e.val[g.Out].HasX() ||
				e.deselected(p.Gate, g, int(p.In)) {
				continue
			}
			e.visited[g.Out] = ep
			stack = append(stack, g.Out)
		}
	}
	return false
}

// nextEpoch starts a new visited epoch and returns it, invalidating every
// stamp of earlier ones.
func (e *Engine) nextEpoch() uint32 {
	e.visitEp++
	if e.visitEp == 0 { // stamp wraparound: invalidate stale entries
		for i := range e.visited {
			e.visited[i] = 0
		}
		e.visitEp = 1
	}
	return e.visitEp
}

// gateObjective proposes an objective that advances the fault effect through
// one D-frontier gate: set an unassigned (good-X) input to the value that
// sensitizes the erroring input.
func (e *Engine) gateObjective(gid netlist.GateID) (objective, bool) {
	g := &e.n.Gates[gid]
	switch g.Kind {
	case netlist.KAnd, netlist.KNand:
		return e.xInputObjective(gid, g, logic.One)
	case netlist.KOr, netlist.KNor:
		return e.xInputObjective(gid, g, logic.Zero)
	case netlist.KXor, netlist.KXnor:
		return e.xInputObjective(gid, g, logic.X)
	case netlist.KMux2:
		return e.muxObjective(gid, g)
	}
	return objective{}, false
}

// xInputObjective picks a good-X input of the gate to set to the
// noncontrolling value. want selects the target: One for AND-family, Zero for
// OR-family; the classic hardest-first rule picks the X input that is most
// expensive to control, so infeasible sensitizations fail early. For the
// XOR-family (want == X) any known value sensitizes, so the cheaper side of
// the first X input wins.
func (e *Engine) xInputObjective(gid netlist.GateID, g *netlist.Gate, want logic.V) (objective, bool) {
	if want == logic.X {
		for p, in := range g.Ins {
			if e.pinVal(gid, g, p).Good.IsKnown() {
				continue
			}
			v := logic.Zero
			if e.ann.CC1[in] < e.ann.CC0[in] {
				v = logic.One
			}
			return objective{net: in, v: v}, true
		}
		return objective{}, false
	}
	best, bestCC := netlist.InvalidNet, int32(-1)
	for p, in := range g.Ins {
		if e.pinVal(gid, g, p).Good.IsKnown() {
			continue
		}
		if cc := e.ann.CCOf(in, want == logic.One); cc > bestCC {
			best, bestCC = in, cc
		}
	}
	if best == netlist.InvalidNet {
		return objective{}, false
	}
	return objective{net: best, v: want}, true
}

// muxObjective handles the 2:1 mux frontier cases: steer the select toward
// the erroring data input, or (for a select fault effect) make the data
// inputs differ.
func (e *Engine) muxObjective(gid netlist.GateID, g *netlist.Gate) (objective, bool) {
	d0 := e.pinVal(gid, g, netlist.MuxD0)
	d1 := e.pinVal(gid, g, netlist.MuxD1)
	s := e.pinVal(gid, g, netlist.MuxS)
	if !s.Good.IsKnown() {
		if d0.IsError() {
			return objective{net: g.Ins[netlist.MuxS], v: logic.Zero}, true
		}
		if d1.IsError() {
			return objective{net: g.Ins[netlist.MuxS], v: logic.One}, true
		}
	}
	// Fault effect on the select (or data side not yet steerable): expose it
	// by making the data inputs known and different.
	if !d0.Good.IsKnown() {
		v := logic.Zero
		if d1.Good.IsKnown() {
			v = d1.Good.Not()
		}
		return objective{net: g.Ins[netlist.MuxD0], v: v}, true
	}
	if !d1.Good.IsKnown() {
		return objective{net: g.Ins[netlist.MuxD1], v: d0.Good.Not()}, true
	}
	return objective{}, false
}
