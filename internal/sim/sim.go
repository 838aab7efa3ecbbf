// Package sim implements levelized ternary simulation of netlists with
// 64-way parallelism, plus stuck-at fault grading in two flavours:
//
//   - pattern-parallel single-fault (PPSFP) combinational grading, and
//   - fault-parallel sequential grading (63 faulty machines + 1 good
//     reference machine per 64-bit word), used to grade SBST programs and
//     mission traces. It skips faults with no structural path to an
//     observation point, drops each fault in the cycle it is detected, and
//     packs the survivors into fewer words as they thin out.
//
// The simulator is cycle-based: EvalComb settles the combinational network
// in one levelized pass, Step additionally commits flip-flop state. DFFR
// reset is treated synchronously (RSTN=0 forces Q to 0 at the next Step),
// which is sufficient for the mission-mode analyses in this library.
package sim

import (
	"fmt"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// Injection forces a stuck-at value on one pin of one gate in a subset of
// the 64 parallel machines.
type Injection struct {
	Site fault.Site
	SA   logic.V
	Mask uint64 // machines affected
}

// Simulator is a 64-way parallel ternary simulator for one netlist.
type Simulator struct {
	N     *netlist.Netlist
	graph *netlist.Graph
	vals  []logic.PV // per net
	next  []logic.PV // per gate: pending FF next-state
	ffs   []netlist.GateID
	// sources lists every gate EvalComb must refresh before the levelized
	// pass (ties, inputs, flip-flops), so the refresh loop doesn't scan the
	// whole gate array.
	sources []netlist.GateID

	// injByGate is a dense per-gate injection table; injGates tracks which
	// entries are non-empty so ClearInjections is O(injected sites). The
	// per-pin guard in the hot loop is one slice-length load — profiling
	// showed the map this replaces cost ~a third of all grading CPU.
	injByGate [][]Injection
	injGates  []netlist.GateID
}

// New builds a simulator. The netlist must levelize (no combinational
// cycles). All nets start at X.
func New(n *netlist.Netlist) (*Simulator, error) {
	graph, err := n.BuildGraph()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		N:         n,
		graph:     graph,
		vals:      make([]logic.PV, len(n.Nets)),
		next:      make([]logic.PV, len(n.Gates)),
		ffs:       n.FlipFlops(),
		injByGate: make([][]Injection, len(n.Gates)),
	}
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.KTie0, netlist.KTie1, netlist.KInput, netlist.KDFF, netlist.KDFFR:
			s.sources = append(s.sources, netlist.GateID(i))
		}
	}
	s.ClearState(logic.X)
	return s, nil
}

// Graph returns the simulator's forward-propagation index (shared, read-only).
func (s *Simulator) Graph() *netlist.Graph { return s.graph }

// Extend re-synchronizes the simulator with a netlist that grew by appended
// gates and nets since New (e.g. constraint.Unroller.Extend): the shared
// graph is extended in place from the supplied topological order (see
// netlist.Graph.Extend for the order contract), new nets start at X, and the
// source and flip-flop lists are recomputed — appending can both add sources
// (synthetic inputs) and retire flip-flops (splice tombstones). State on
// pre-existing nets is preserved. Injections must be clear across the call.
func (s *Simulator) Extend(order []netlist.GateID) error {
	if err := s.graph.Extend(s.N, order); err != nil {
		return err
	}
	for len(s.vals) < len(s.N.Nets) {
		s.vals = append(s.vals, logic.PVSplat(logic.X))
	}
	for len(s.next) < len(s.N.Gates) {
		s.next = append(s.next, logic.PV{})
	}
	for len(s.injByGate) < len(s.N.Gates) {
		s.injByGate = append(s.injByGate, nil)
	}
	s.sources = s.sources[:0]
	for i := range s.N.Gates {
		switch s.N.Gates[i].Kind {
		case netlist.KTie0, netlist.KTie1, netlist.KInput, netlist.KDFF, netlist.KDFFR:
			s.sources = append(s.sources, netlist.GateID(i))
		}
	}
	s.ffs = s.N.FlipFlops()
	return nil
}

// AddInjection registers a stuck-at injection. Call ClearInjections to
// remove all of them.
func (s *Simulator) AddInjection(in Injection) {
	g := in.Site.Gate
	if len(s.injByGate[g]) == 0 {
		s.injGates = append(s.injGates, g)
	}
	s.injByGate[g] = append(s.injByGate[g], in)
}

// ClearInjections removes all registered injections. Capacity is retained,
// so inject/clear cycles stop allocating after warm-up.
func (s *Simulator) ClearInjections() {
	for _, g := range s.injGates {
		s.injByGate[g] = s.injByGate[g][:0]
	}
	s.injGates = s.injGates[:0]
}

// ClearState sets every net (including flip-flop outputs) to v in all slots.
func (s *Simulator) ClearState(v logic.V) {
	pv := logic.PVSplat(v)
	for i := range s.vals {
		s.vals[i] = pv
	}
}

// SetInput drives a primary-input net with a packed vector.
func (s *Simulator) SetInput(net netlist.NetID, v logic.PV) { s.vals[net] = v }

// SetInputV drives a primary-input net with the same ternary value in all
// slots.
func (s *Simulator) SetInputV(net netlist.NetID, v logic.V) {
	s.vals[net] = logic.PVSplat(v)
}

// NetVal returns the current value of a net.
func (s *Simulator) NetVal(net netlist.NetID) logic.PV { return s.vals[net] }

// pinVal reads input pin p of gate g with injections applied.
func (s *Simulator) pinVal(g netlist.GateID, gate *netlist.Gate, p int) logic.PV {
	v := s.vals[gate.Ins[p]]
	if injs := s.injByGate[g]; len(injs) != 0 {
		for _, in := range injs {
			if int(in.Site.Pin) == p {
				v = logic.Select(in.Mask, logic.PVSplat(in.SA), v)
			}
		}
	}
	return v
}

func (s *Simulator) outVal(g netlist.GateID, v logic.PV) logic.PV {
	if injs := s.injByGate[g]; len(injs) != 0 {
		for _, in := range injs {
			if in.Site.Pin == fault.OutputPin {
				v = logic.Select(in.Mask, logic.PVSplat(in.SA), v)
			}
		}
	}
	return v
}

// refreshSource recomputes a source gate's output value exactly as EvalComb's
// refresh loop does: ties drive their constants, input and flip-flop gates
// keep the current state value, and output injections apply on top.
func (s *Simulator) refreshSource(gid netlist.GateID, g *netlist.Gate) logic.PV {
	switch g.Kind {
	case netlist.KTie0:
		return s.outVal(gid, logic.PVAllZero)
	case netlist.KTie1:
		return s.outVal(gid, logic.PVAllOne)
	default: // KInput, KDFF, KDFFR
		return s.outVal(gid, s.vals[g.Out])
	}
}

// EvalComb performs one full levelized pass over the combinational network,
// updating every non-source net from the current inputs and state. Source
// gates (inputs, ties, flip-flops) also refresh their output nets so tie
// values and injections on them take effect.
func (s *Simulator) EvalComb() {
	for _, gid := range s.sources {
		g := &s.N.Gates[gid]
		s.vals[g.Out] = s.refreshSource(gid, g)
	}
	for _, gid := range s.graph.Order() {
		g := &s.N.Gates[gid]
		if g.Out == netlist.InvalidNet {
			continue // KOutput: nothing to compute
		}
		s.vals[g.Out] = s.outVal(gid, s.evalGate(gid, g))
	}
}

func (s *Simulator) evalGate(gid netlist.GateID, g *netlist.Gate) logic.PV {
	switch g.Kind {
	case netlist.KBuf:
		return s.pinVal(gid, g, 0)
	case netlist.KNot:
		return s.pinVal(gid, g, 0).Not()
	case netlist.KAnd, netlist.KNand:
		v := s.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.And(s.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNand {
			v = v.Not()
		}
		return v
	case netlist.KOr, netlist.KNor:
		v := s.pinVal(gid, g, 0)
		for p := 1; p < len(g.Ins); p++ {
			v = v.Or(s.pinVal(gid, g, p))
		}
		if g.Kind == netlist.KNor {
			v = v.Not()
		}
		return v
	case netlist.KXor:
		return s.pinVal(gid, g, 0).Xor(s.pinVal(gid, g, 1))
	case netlist.KXnor:
		return s.pinVal(gid, g, 0).Xor(s.pinVal(gid, g, 1)).Not()
	case netlist.KMux2:
		return logic.PVMux(s.pinVal(gid, g, netlist.MuxS),
			s.pinVal(gid, g, netlist.MuxD0), s.pinVal(gid, g, netlist.MuxD1))
	}
	panic(fmt.Sprintf("sim: cannot evaluate %v gate %q", g.Kind, g.Name))
}

// Step settles the combinational network, then clocks every flip-flop.
func (s *Simulator) Step() {
	s.EvalComb()
	s.CommitState()
}

// CommitState clocks every flip-flop from the currently settled
// combinational values. Callers that need to sample outputs between
// settling and the clock edge use EvalComb + CommitState directly.
func (s *Simulator) CommitState() {
	for _, f := range s.ffs {
		g := &s.N.Gates[f]
		d := s.pinVal(f, g, netlist.DffD)
		if g.Kind == netlist.KDFFR {
			rstn := s.pinVal(f, g, netlist.DffRstN)
			d = logic.PVMux(rstn, logic.PVAllZero, d)
		}
		s.next[f] = d
	}
	for _, f := range s.ffs {
		g := &s.N.Gates[f]
		s.vals[g.Out] = s.outVal(f, s.next[f])
	}
}

// Run executes n Steps.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}
