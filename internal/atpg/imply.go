package atpg

import (
	"fmt"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// implyCone settles the relevance cone N (cone.go) in the five-valued
// D-calculus from the current input assignments, injecting the target fault
// at every one of its sites: N's sources, then N's gates in levelized order.
// It is a search's first implication pass. Implication is pure forward
// simulation, with all search intelligence in objective selection and
// backtracking. With a multi-site injection the faulty machine carries the
// stuck value at all sites at once — the joint fault — so implication,
// detection and every pruning rule reason about the same machine the grading
// simulators build.
func (e *Engine) implyCone() {
	for _, gid := range e.coneSrc {
		e.val[e.n.Gates[gid].Out] = e.sourceVal(gid)
	}
	for _, gid := range e.coneGates {
		g := &e.n.Gates[gid]
		v := e.evalGate(gid, g)
		if e.injOut[gid] {
			v = v.WithFaulty(e.sa)
		}
		e.val[g.Out] = v
	}
	e.gateEvals += len(e.coneGates)
	e.changed = e.changed[:0]
	e.updateSiteVals()
}

// imply brings N up to date with the assignables the last decision step
// changed (Engine.changed), by selective trace: it rewrites each changed
// source whose net lies in N, then re-evaluates the readers inside N level
// by level, writing a gate's value and scheduling its own readers only when
// the value actually changes. Forward implication is a pure function of the
// assignment, so the result equals a full implyCone pass, at the cost of
// the gates the step reached.
func (e *Engine) imply() {
	lo, hi := len(e.implQ), 0
	schedule := func(net netlist.NetID) {
		for _, p := range e.n.Nets[net].Fanout {
			if e.cone[p.Gate]&(coneN|coneQueued) != coneN {
				continue
			}
			e.cone[p.Gate] |= coneQueued
			l := int(e.ann.Level[e.n.Gates[p.Gate].Out])
			e.implQ[l] = append(e.implQ[l], p.Gate)
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	for _, idx := range e.changed {
		net := e.assignable[idx]
		src := e.n.Nets[net].Driver
		if e.cone[src]&coneSrc == 0 {
			continue
		}
		if v := e.sourceVal(src); v != e.val[net] {
			e.val[net] = v
			schedule(net)
		}
	}
	e.changed = e.changed[:0]
	// Readers sit at strictly higher levels than the nets they read, so a
	// level's queue is complete by the time the loop reaches it.
	for l := lo; l <= hi; l++ {
		for _, gid := range e.implQ[l] {
			e.cone[gid] &^= coneQueued
			g := &e.n.Gates[gid]
			v := e.evalGate(gid, g)
			if e.injOut[gid] {
				v = v.WithFaulty(e.sa)
			}
			if v != e.val[g.Out] {
				e.val[g.Out] = v
				schedule(g.Out)
			}
		}
		e.gateEvals += len(e.implQ[l])
		e.implQ[l] = e.implQ[l][:0]
	}
	e.updateSiteVals()
}

// sourceVal returns the implied value of a source gate's output: its tie
// constant or its assignable's current value, with an output site applied.
func (e *Engine) sourceVal(gid netlist.GateID) logic.D5 {
	g := &e.n.Gates[gid]
	var v logic.D5
	switch g.Kind {
	case netlist.KTie0:
		v = logic.Zero5
	case netlist.KTie1:
		v = logic.One5
	default:
		v = logic.Lift(e.assigns[e.pIdx[g.Out]])
	}
	if e.injOut[gid] {
		v = v.WithFaulty(e.sa)
	}
	return v
}

// updateSiteVals refreshes every site's implied value after a pass.
func (e *Engine) updateSiteVals() {
	for i, s := range e.inj.Sites {
		if s.Pin == fault.OutputPin {
			e.siteVals[i] = e.val[e.siteNets[i]]
		} else {
			e.siteVals[i] = e.pinVal(s.Gate, &e.n.Gates[s.Gate], int(s.Pin))
		}
	}
}

// pinVal reads input pin p of gate g with the fault injection applied. Input
// pin faults affect only this branch of the net, which is exactly the
// single-stuck-pin semantics — applied site by site, however many sites the
// injection has.
func (e *Engine) pinVal(gid netlist.GateID, g *netlist.Gate, p int) logic.D5 {
	v := e.val[g.Ins[p]]
	if p < 64 {
		if e.injPinMask[gid]&(1<<uint(p)) != 0 {
			v = v.WithFaulty(e.sa)
		}
	} else if e.injPinWide[netlist.Pin{Gate: gid, In: int32(p)}] {
		v = v.WithFaulty(e.sa)
	}
	return v
}

func (e *Engine) evalGate(gid netlist.GateID, g *netlist.Gate) logic.D5 {
	switch g.Kind {
	case netlist.KBuf:
		return e.pinVal(gid, g, 0)
	case netlist.KNot:
		return e.pinVal(gid, g, 0).Not()
	case netlist.KAnd, netlist.KNand:
		v := e.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.And(e.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNand {
			v = v.Not()
		}
		return v
	case netlist.KOr, netlist.KNor:
		v := e.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.Or(e.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNor {
			v = v.Not()
		}
		return v
	case netlist.KXor:
		return e.pinVal(gid, g, 0).Xor(e.pinVal(gid, g, 1))
	case netlist.KXnor:
		return e.pinVal(gid, g, 0).Xnor(e.pinVal(gid, g, 1))
	case netlist.KMux2:
		return logic.Mux5(e.pinVal(gid, g, netlist.MuxS),
			e.pinVal(gid, g, netlist.MuxD0), e.pinVal(gid, g, netlist.MuxD1))
	}
	panic(fmt.Sprintf("atpg: cannot evaluate %v gate %q", g.Kind, g.Name))
}

// detected reports whether a fault effect has reached an observation point.
// Only the points in the fault's cone can show one.
func (e *Engine) detected() bool {
	for _, p := range e.coneObs {
		if e.pinVal(p.Gate, &e.n.Gates[p.Gate], int(p.Pin)).IsError() {
			return true
		}
	}
	return false
}
