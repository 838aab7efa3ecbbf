package sim

import (
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// maxProofVars bounds the free variables of one local proof: 2^12
// assignments, 64 words of 64 lanes.
const maxProofVars = 12

// varLanes[j] is the lane pattern of a proof's free variable j < 6: lane l
// carries bit j of l, so one word runs 64 assignments. Free variable j >= 6
// carries bit j-6 of the word's index in every lane.
var varLanes = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// prover shows single-site faults undetectable under one stimulus and one
// set of observation points by a local check at a fanout-free dominator of
// the fault, in the line of PROOFS' static screen and of fault-independent
// redundancy identification (FIRE; Iyer & Abramovici, IEEE TVLSI 1996).
//
// A fault's chain starts at the site net of a stem fault, or at the output
// of a pin fault's gate, and extends while its last net has exactly one
// reader pin, on a live combinational gate, and no observation point reads
// the net. Every path from the fault to an observation point or a flip-flop
// runs through each net d of the chain. At d the prover runs the
// simulator's own ops, good and then with the fault injected, over every
// assignment of d's local support: a net that is the site net or depends on
// it combinationally is expanded through its driving gate; every other net
// is a leaf. A leaf is a constant when a tie drives it or when it is a
// primary input the stimulus holds at one known value in every cycle, and
// a free variable otherwise. If good and faulty agree at d under every
// assignment, they agree everywhere outside the chain in every cycle, from
// any state, so no observation point can ever tell them apart. The check is
// two-valued, and a ternary detection needs the two machines to differ
// under every completion of their X values, so the grader never detects
// the fault either.
//
// Per-net scratch is stamped, so a proof costs its cone, not the netlist.
type prover struct {
	s       *Simulator
	observe []ObsPoint
	// fixed[net] is the value a tie or the stimulus gives net in every
	// cycle, or X.
	fixed []logic.V
	// watched[net] reports whether an observation point reads net.
	watched []bool
	// dep[net] is the stamp of the last proof whose site net it depends on,
	// seen[net] that of the last cone walk that reached it.
	dep, seen []uint32
	stamp     uint32

	chain  []netlist.NetID
	stack  []netlist.NetID
	prog   []int32                           // the cone's op positions, inputs before outputs
	ops    []op                              // the cone's ops, copied from s.ops
	leaves []netlist.NetID                   // the cone's leaves
	vars   []netlist.NetID                   // the leaves that are free variables
	saved  []logic.PV                        // the leaves' values before the proof
	good   [1 << (maxProofVars - 6)]logic.PV // the good value of d, per word
}

// newProver readies local proofs on s's netlist under stim and observe. A
// net counts as held only when a primary input drives it and stim drives it
// to the same known value in every cycle.
func newProver(s *Simulator, stim Stimulus, observe []ObsPoint) *prover {
	n := s.N
	p := &prover{
		s:       s,
		observe: observe,
		fixed:   make([]logic.V, len(n.Nets)),
		watched: make([]bool, len(n.Nets)),
		dep:     make([]uint32, len(n.Nets)),
		seen:    make([]uint32, len(n.Nets)),
	}
	for i := range p.fixed {
		p.fixed[i] = logic.X
	}
	for _, t := range s.ties {
		p.fixed[t.out] = logic.Zero
		if t.v == logic.PVAllOne {
			p.fixed[t.out] = logic.One
		}
	}
	if len(stim.Cycles) > 0 {
		first := stim.Cycles[0]
		var held []int
		for i, net := range stim.Inputs {
			if drv := n.Nets[net].Driver; drv != netlist.InvalidGate &&
				n.Gates[drv].Kind == netlist.KInput && first[i].IsKnown() {
				held = append(held, i)
			}
		}
		for _, cyc := range stim.Cycles[1:] {
			k := 0
			for _, i := range held {
				if cyc[i] == first[i] {
					held[k] = i
					k++
				}
			}
			held = held[:k]
		}
		for _, i := range held {
			p.fixed[stim.Inputs[i]] = first[i]
		}
	}
	for _, pt := range observe {
		p.watched[n.Gates[pt.Gate].Ins[pt.Pin]] = true
	}
	return p
}

// proves reports whether the local check shows single-site fault f
// undetectable. A fault on a flip-flop, on an observation pin, or with a
// stuck value other than 0 or 1 is not tried. It leaves the simulator
// without injections.
func (p *prover) proves(f fault.Fault) bool {
	if !f.SA.IsKnown() || !p.walkChain(f) {
		return false
	}
	n := p.s.N
	site := n.Gates[f.Gate].Out
	if f.Pin != fault.OutputPin {
		site = n.Gates[f.Gate].Ins[f.Pin]
	}
	p.stamp++
	p.markDependents(site)
	dep := p.stamp
	for _, d := range p.chain {
		if !p.cone(d, dep) {
			return false // a later net's support holds this one's
		}
		if p.agrees(d, f) {
			return true
		}
	}
	return false
}

// walkChain fills p.chain with f's fanout-free dominator chain and reports
// whether f may be tried at all.
func (p *prover) walkChain(f fault.Fault) bool {
	n := p.s.N
	g := &n.Gates[f.Gate]
	if f.Pin != fault.OutputPin {
		if !g.Kind.IsComb() {
			return false
		}
		for _, pt := range p.observe {
			if pt.Gate == f.Gate && pt.Pin == f.Pin {
				return false
			}
		}
	} else if g.Kind.IsState() {
		return false
	}
	c := g.Out
	p.chain = append(p.chain[:0], c)
	for !p.watched[c] {
		reader := netlist.InvalidGate
		for _, pin := range n.Nets[c].Fanout {
			if n.Gates[pin.Gate].Kind == netlist.KDead {
				continue
			}
			if reader != netlist.InvalidGate {
				return true // a second reader pin
			}
			reader = pin.Gate
		}
		if reader == netlist.InvalidGate || !n.Gates[reader].Kind.IsComb() {
			return true
		}
		c = n.Gates[reader].Out
		p.chain = append(p.chain, c)
	}
	return true
}

// markDependents stamps the site net and every net that depends on it
// through combinational gates evaluated no later than the chain's last.
func (p *prover) markDependents(site netlist.NetID) {
	n, graph := p.s.N, p.s.graph
	last := int32(-1)
	if drv := n.Nets[p.chain[len(p.chain)-1]].Driver; drv != netlist.InvalidGate {
		last = graph.Pos(drv)
	}
	p.dep[site] = p.stamp
	p.stack = append(p.stack[:0], site)
	for len(p.stack) > 0 {
		net := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		for _, g := range graph.Consumers(net) {
			out := n.Gates[g].Out
			if pos := graph.Pos(g); pos < 0 || pos > last || out == netlist.InvalidNet || p.dep[out] == p.stamp {
				continue
			}
			p.dep[out] = p.stamp
			p.stack = append(p.stack, out)
		}
	}
}

// cone collects d's local program and leaves, and reports false when the
// leaves hold more than maxProofVars free variables. dep is the stamp of the
// nets that depend on the site.
func (p *prover) cone(d netlist.NetID, dep uint32) bool {
	p.stamp++
	p.prog, p.leaves, p.vars = p.prog[:0], p.leaves[:0], p.vars[:0]
	return p.visit(d, dep)
}

// visit adds net to the current cone: through its driving gate when the net
// depends on the site and a live combinational gate drives it, as a leaf
// otherwise. Gates are added after their inputs.
func (p *prover) visit(net netlist.NetID, dep uint32) bool {
	if p.seen[net] == p.stamp {
		return true
	}
	p.seen[net] = p.stamp
	n := p.s.N
	if drv := n.Nets[net].Driver; p.dep[net] == dep && drv != netlist.InvalidGate && n.Gates[drv].Kind.IsComb() {
		for _, in := range n.Gates[drv].Ins {
			if !p.visit(in, dep) {
				return false
			}
		}
		p.prog = append(p.prog, p.s.graph.Pos(drv))
		return true
	}
	p.leaves = append(p.leaves, net)
	if p.fixed[net] == logic.X {
		p.vars = append(p.vars, net)
	}
	return len(p.vars) <= maxProofVars
}

// agrees runs the current cone good and with f injected over every
// assignment of its free variables, and reports whether d carries the same
// value in both under each. It restores the leaves' values and leaves the
// simulator without injections.
func (p *prover) agrees(d netlist.NetID, f fault.Fault) bool {
	s := p.s
	p.saved = p.saved[:0]
	for _, net := range p.leaves {
		p.saved = append(p.saved, s.vals[net])
		s.vals[net] = logic.PVSplat(p.fixed[net])
	}
	nw := 1
	if len(p.vars) > len(varLanes) {
		nw = 1 << (len(p.vars) - len(varLanes))
	}
	s.ClearInjections()
	p.loadOps()
	for w := 0; w < nw; w++ {
		p.assign(w)
		s.run(p.ops)
		p.good[w] = s.vals[d]
	}
	s.AddInjection(Injection{Site: f.Site, SA: f.SA, Mask: ^uint64(0)})
	p.loadOps()
	ok := true
	for w := 0; w < nw && ok; w++ {
		p.assign(w)
		s.overrideSources()
		s.run(p.ops)
		ok = s.vals[d] == p.good[w]
	}
	s.ClearInjections()
	for i, net := range p.leaves {
		s.vals[net] = p.saved[i]
	}
	return ok
}

// loadOps copies the cone's ops, with their current injection flags.
func (p *prover) loadOps() {
	p.ops = p.ops[:0]
	for _, pos := range p.prog {
		p.ops = append(p.ops, p.s.ops[pos])
	}
}

// assign drives the free variables with word w's assignments.
func (p *prover) assign(w int) {
	for j, net := range p.vars {
		var lanes uint64
		if j < len(varLanes) {
			lanes = varLanes[j]
		} else {
			lanes = -(uint64(w) >> uint(j-len(varLanes)) & 1)
		}
		p.s.vals[net] = logic.PVFromBits(lanes)
	}
}
