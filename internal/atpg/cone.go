package atpg

import (
	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// Engine.cone flag bits, one byte per gate.
const (
	// coneF: a combinational gate a fault effect can reach — F.
	coneF uint8 = 1 << iota
	// coneN: a combinational gate of N, the closure of F and the site nets
	// under combinational fan-in. Every gate of F carries it too.
	coneN
	// coneSrc: a source gate (input, tie or flip-flop) that drives a net
	// of N.
	coneSrc
	// coneQueued: the gate waits in an event-driven implication queue.
	coneQueued
)

// buildCone computes the relevance cone of the installed injection, once per
// search. F is the set of combinational gates a fault effect can reach: a
// site on a combinational gate's pin or output puts that gate in F, an output
// site on a source gate seeds the source's readers, and the forward walk
// stops at flip-flops, outputs and dead gates. N is F plus the combinational
// fan-in of every site net and of every input of an F gate; that walk stops
// at the sources (inputs, flip-flop outputs, ties).
//
// Every value the search reads lies in N. Activation reads site nets and
// site gates; the X-path DFS reads the outputs of F gates; the D-frontier
// reads F gates and their pins; objectives name site nets and inputs of F
// gates, and backtrace walks their fan-in, under which N is closed; and
// detection reads only the observation pins an F gate (or a source carrying
// an output site) drives, or that are themselves injected — coneObs. A fault
// effect cannot show at any other pin. So implication settles N alone, and
// values outside it, stale from earlier searches, are never read.
func (e *Engine) buildCone() {
	for _, g := range e.coneGates {
		e.cone[g] = 0
	}
	for _, g := range e.coneSrc {
		e.cone[g] = 0
	}
	e.coneGates, e.coneF = e.coneGates[:0], e.coneF[:0]
	e.coneSrc, e.coneObs = e.coneSrc[:0], e.coneObs[:0]

	// F: seed at the sites, then walk forward. coneWork ends up holding F.
	e.coneWork = e.coneWork[:0]
	for _, s := range e.inj.Sites {
		switch g := &e.n.Gates[s.Gate]; {
		case g.Kind.IsComb():
			e.markF(s.Gate)
		case s.Pin == fault.OutputPin:
			e.markReadersF(g.Out)
		}
	}
	for i := 0; i < len(e.coneWork); i++ {
		e.markReadersF(e.n.Gates[e.coneWork[i]].Out)
	}

	// N: walk the fan-in of the site nets and of every input of an F gate.
	// Combinational gates the walk reaches append themselves to coneWork,
	// so the loop visits their inputs too.
	for _, net := range e.siteNets {
		e.markN(net)
	}
	for i := 0; i < len(e.coneWork); i++ {
		for _, in := range e.n.Gates[e.coneWork[i]].Ins {
			e.markN(in)
		}
	}

	for _, g := range e.ann.Order() {
		switch f := e.cone[g]; {
		case f&coneF != 0:
			e.coneF = append(e.coneF, g)
			e.coneGates = append(e.coneGates, g)
		case f&coneN != 0:
			e.coneGates = append(e.coneGates, g)
		}
	}

	// Observation points a fault effect can reach: pins reading an F gate
	// or a source with an output site, and injected pins. A pin may be
	// listed twice; detection only asks whether any pin shows an error.
	for _, g := range e.coneF {
		e.appendObs(e.n.Gates[g].Out)
	}
	for _, s := range e.inj.Sites {
		switch g := &e.n.Gates[s.Gate]; {
		case s.Pin != fault.OutputPin:
			if e.observable(s.Gate, s.Pin) {
				e.coneObs = append(e.coneObs, sim.ObsPoint{Gate: s.Gate, Pin: s.Pin})
			}
		case g.Kind.IsSource():
			e.appendObs(g.Out)
		}
	}
}

// markF puts a combinational gate in F (and so in N).
func (e *Engine) markF(g netlist.GateID) {
	if e.cone[g]&coneF == 0 {
		e.cone[g] |= coneF | coneN
		e.coneWork = append(e.coneWork, g)
	}
}

// markReadersF puts every combinational reader of net in F.
func (e *Engine) markReadersF(net netlist.NetID) {
	for _, p := range e.n.Nets[net].Fanout {
		if e.n.Gates[p.Gate].Kind.IsComb() {
			e.markF(p.Gate)
		}
	}
}

// markN puts the driver of net in N: a source joins coneSrc, a
// combinational gate joins coneWork so its own inputs get walked.
func (e *Engine) markN(net netlist.NetID) {
	drv := e.n.Nets[net].Driver
	if drv == netlist.InvalidGate || e.cone[drv] != 0 {
		return
	}
	switch k := e.n.Gates[drv].Kind; {
	case k.IsSource():
		e.cone[drv] = coneSrc
		e.coneSrc = append(e.coneSrc, drv)
	case k.IsComb():
		e.cone[drv] = coneN
		e.coneWork = append(e.coneWork, drv)
	}
}

// appendObs adds every observation pin reading net to coneObs.
func (e *Engine) appendObs(net netlist.NetID) {
	for _, p := range e.n.Nets[net].Fanout {
		if e.observable(p.Gate, p.In) {
			e.coneObs = append(e.coneObs, sim.ObsPoint{Gate: p.Gate, Pin: p.In})
		}
	}
}
