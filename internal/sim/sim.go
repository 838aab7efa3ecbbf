// Package sim implements levelized ternary simulation of netlists with
// 64-way parallelism, plus stuck-at fault grading in two flavours:
//
//   - pattern-parallel single-fault (PPSFP) combinational grading, whose
//     grader also carries the static untestability screen ATPG runs before
//     any search (Grader.Screen: ternary constants and structural
//     unobservability), and
//   - fault-parallel sequential grading (63 faulty machines + 1 good
//     reference machine per 64-bit word), used to grade SBST programs and
//     mission traces. It skips faults with no structural path to an
//     observation point, drops each fault in the cycle it is detected,
//     packs the survivors into fewer words as they thin out, moving each
//     word's survivors at once, and, once they fit one word, retires those
//     a local proof at a fanout-free dominator shows undetectable under the
//     inputs the stimulus holds constant.
//
// The simulator is cycle-based and compiled: New turns the levelized
// combinational order into a flat program of ops, one per gate, each
// specialised by gate kind and arity with its input nets inline, and
// EvalComb settles the network by running that program once: unflagged ops
// through one evaluation switch, ops of injected gates through a masked copy
// of it. Step additionally commits flip-flop state. DFFR reset
// is treated synchronously (RSTN=0 forces Q to 0 at the next Step), which
// is sufficient for the mission-mode analyses in this library.
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

// opcode is the gate kind of a compiled op, specialised by arity: the 2-input
// AND, NAND, OR and NOR have codes of their own, so that every gate of up to
// three inputs carries its input nets inline.
type opcode uint8

const (
	opNop opcode = iota // a KOutput marker: nothing to compute
	opBuf
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor
	opXnor
	opMux
	// The n-ary codes, for AND, NAND, OR and NOR of three or more inputs.
	opAnd
	opNand
	opOr
	opNor
)

// operandPins lists, for each inline opcode, the gate pin that each of the
// operands a, b and c reads. A mux's operands are its select, D0 and D1.
var operandPins = [...][]int32{
	opBuf: {0}, opNot: {0},
	opAnd2: {0, 1}, opNand2: {0, 1}, opOr2: {0, 1}, opNor2: {0, 1},
	opXor: {0, 1}, opXnor: {0, 1},
	opMux: {netlist.MuxS, netlist.MuxD0, netlist.MuxD1},
}

// op is one compiled gate evaluation. Op i of Simulator.ops evaluates the
// gate at position i of the graph's order, so a position indexes its op.
// An inline opcode's operands a, b and c are its input nets (see
// operandPins); an n-ary opcode reads the b input nets from Simulator.ins,
// starting at offset a.
type op struct {
	code    opcode
	inj     int32         // 0, or the gate's injAt entry (see AddInjection)
	out     netlist.NetID // InvalidNet for opNop
	a, b, c int32
}

// flop is one compiled flip-flop: its Q, D and RSTN nets (RSTN is
// InvalidNet for a plain KDFF).
type flop struct {
	gate       netlist.GateID
	q, d, rstn netlist.NetID
}

// tie is one compiled constant source.
type tie struct {
	out netlist.NetID
	v   logic.PV
}

// pinMask is the injected override of one pin: lanes in k read the forced
// rails f0/f1 instead of the net value. A lane in k set in neither rail
// reads X.
type pinMask struct{ k, f0, f1 uint64 }

func (m *pinMask) apply(v logic.PV) logic.PV {
	return logic.PV{L0: v.L0&^m.k | m.f0, L1: v.L1&^m.k | m.f1}
}

// add forces sa in the lanes of mask, over any earlier injection there.
func (m *pinMask) add(mask uint64, sa logic.V) {
	m.k |= mask
	m.f0 &^= mask
	m.f1 &^= mask
	switch sa {
	case logic.Zero:
		m.f0 |= mask
	case logic.One:
		m.f1 |= mask
	}
}

// Simulator is a 64-way parallel ternary simulator for one netlist. It runs
// a compiled program: one op per gate of the levelized order, each holding
// its opcode, its output net and its input nets (inline, or a range of one
// shared slice for a wide gate), so a settle never touches the netlist's
// gate structs. An op whose gate carries an injection is flagged and
// evaluated by runInjected, which reads every pin through its override mask
// and computes the gate from those reads; all other ops read the net values
// directly in run.
type Simulator struct {
	N     *netlist.Netlist
	graph *netlist.Graph
	vals  []logic.PV // one value per net of the compiled netlist
	ops   []op
	ins   []netlist.NetID // the input nets of the n-ary ops
	ties  []tie
	ffs   []flop
	next  []logic.PV // per flip-flop: pending next state
	// srcNets lists the output nets of every source gate (inputs, ties,
	// flip-flops) in gate order: the values that carry a machine's state
	// from one cycle to the next.
	srcNets []netlist.NetID

	// Injections. A gate with any injection owns a block of pin masks in
	// masks: its output at masks[injAt[g]-1], input pin p at
	// masks[injAt[g]+p]. injAt[g] is 0 for a gate without injections, and
	// the gate's op (if any) carries the same value in op.inj, so only
	// flagged ops take the masked path. injSrcs lists the injected source
	// gates, whose output override EvalComb applies before the ops run.
	injAt    []int32
	masks    []pinMask
	injGates []netlist.GateID
	injSrcs  []netlist.GateID
}

// New builds a simulator. The netlist must levelize (no combinational
// cycles). All nets start at X.
func New(n *netlist.Netlist) (*Simulator, error) {
	graph, err := n.BuildGraph()
	if err != nil {
		return nil, err
	}
	s := &Simulator{N: n, graph: graph}
	s.compile()
	return s, nil
}

// compile builds the op program and the source and flip-flop tables from
// the graph's order and the netlist's current pins, and sizes the per-net
// and per-gate state. Net values already present are kept; new nets start
// at X. Injections must be clear.
func (s *Simulator) compile() {
	n := s.N
	order := s.graph.Order()
	s.ops = resize(s.ops, len(order))
	s.ins = s.ins[:0]
	for i, gid := range order {
		s.ops[i] = s.compileOp(&n.Gates[gid])
	}
	// Values of existing nets survive (a netlist only grows); new nets get
	// the zero PV, X in every slot.
	s.vals = resize(s.vals, len(n.Nets))

	s.ties, s.ffs, s.srcNets = s.ties[:0], s.ffs[:0], s.srcNets[:0]
	for i := range n.Gates {
		g := &n.Gates[i]
		if !g.Kind.IsSource() {
			continue
		}
		s.srcNets = append(s.srcNets, g.Out)
		switch g.Kind {
		case netlist.KTie0:
			s.ties = append(s.ties, tie{out: g.Out, v: logic.PVAllZero})
		case netlist.KTie1:
			s.ties = append(s.ties, tie{out: g.Out, v: logic.PVAllOne})
		case netlist.KDFF, netlist.KDFFR:
			f := flop{gate: netlist.GateID(i), q: g.Out, d: g.Ins[netlist.DffD], rstn: netlist.InvalidNet}
			if g.Kind == netlist.KDFFR {
				f.rstn = g.Ins[netlist.DffRstN]
			}
			s.ffs = append(s.ffs, f)
		}
	}
	s.next = resize(s.next, len(s.ffs))
	s.injAt = resize(s.injAt, len(n.Gates))
}

// compileOp compiles one gate of the order into its op. An AND, NAND, OR or
// NOR of three or more inputs gets its n-ary opcode and appends its input
// nets to s.ins; every other gate carries them inline.
func (s *Simulator) compileOp(g *netlist.Gate) op {
	var code, wide opcode
	switch g.Kind {
	case netlist.KOutput:
		return op{code: opNop, out: g.Out}
	case netlist.KBuf:
		code = opBuf
	case netlist.KNot:
		code = opNot
	case netlist.KAnd:
		code, wide = opAnd2, opAnd
	case netlist.KNand:
		code, wide = opNand2, opNand
	case netlist.KOr:
		code, wide = opOr2, opOr
	case netlist.KNor:
		code, wide = opNor2, opNor
	case netlist.KXor:
		code = opXor
	case netlist.KXnor:
		code = opXnor
	case netlist.KMux2:
		code = opMux
	default:
		panic(fmt.Sprintf("sim: cannot compile %v gate %q", g.Kind, g.Name))
	}
	o := op{code: code, out: g.Out}
	pins := operandPins[code]
	if len(g.Ins) > len(pins) {
		o.code, o.a, o.b = wide, int32(len(s.ins)), int32(len(g.Ins))
		s.ins = append(s.ins, g.Ins...)
		return o
	}
	operands := [...]*int32{&o.a, &o.b, &o.c}
	for j, p := range pins {
		*operands[j] = int32(g.Ins[p])
	}
	return o
}

// resize returns s cut or extended to length n; entries past len(s) are
// zero.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// Graph returns the simulator's forward-propagation index (shared, read-only).
func (s *Simulator) Graph() *netlist.Graph { return s.graph }

// Extend re-synchronizes the simulator with a netlist that grew by appended
// gates and nets since New (e.g. constraint.Unroller.Extend): the shared
// graph is extended in place from the supplied topological order (see
// netlist.Graph.Extend for the order contract) and the op program is
// recompiled from it — an unroll extension re-splices the pins of old gates
// as well as appending new ones. New nets start at X, and the source and
// flip-flop tables are rebuilt, because appending can both add sources
// (synthetic inputs) and retire flip-flops (splice tombstones). State on
// pre-existing nets is preserved. Injections must be clear across the call.
func (s *Simulator) Extend(order []netlist.GateID) error {
	if err := s.graph.Extend(s.N, order); err != nil {
		return err
	}
	s.compile()
	return nil
}

// AddInjection registers a stuck-at injection. Where its lanes overlap an
// earlier injection on the same pin, the later one wins. Call
// ClearInjections to remove all of them.
func (s *Simulator) AddInjection(in Injection) {
	g := in.Site.Gate
	gate := &s.N.Gates[g]
	if in.Site.Pin < fault.OutputPin || int(in.Site.Pin) >= len(gate.Ins) {
		panic(fmt.Sprintf("sim: injection on pin %d of %v gate %q", in.Site.Pin, gate.Kind, gate.Name))
	}
	m := s.injAt[g]
	if m == 0 {
		m = int32(len(s.masks)) + 1
		for range 1 + len(gate.Ins) {
			s.masks = append(s.masks, pinMask{})
		}
		s.injAt[g] = m
		s.injGates = append(s.injGates, g)
		if pos := s.graph.Pos(g); pos >= 0 {
			s.ops[pos].inj = m
		} else if gate.Kind.IsSource() {
			s.injSrcs = append(s.injSrcs, g)
		}
	}
	s.masks[m+in.Site.Pin].add(in.Mask, in.SA)
}

// ClearInjections removes all registered injections. Capacity is retained,
// so inject/clear cycles stop allocating after warm-up.
func (s *Simulator) ClearInjections() {
	for _, g := range s.injGates {
		s.injAt[g] = 0
		if pos := s.graph.Pos(g); pos >= 0 {
			s.ops[pos].inj = 0
		}
	}
	s.injGates = s.injGates[:0]
	s.injSrcs = s.injSrcs[:0]
	s.masks = s.masks[:0]
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

// read returns the value input pin (or fault.OutputPin) pin of gate g sees
// on net, with the gate's injections applied.
func (s *Simulator) read(g netlist.GateID, pin int32, net netlist.NetID) logic.PV {
	v := s.vals[net]
	if m := s.injAt[g]; m != 0 {
		v = s.masks[m+pin].apply(v)
	}
	return v
}

// sourceVal is the output value of an injected source gate: its net value
// (the state, input or constant EvalComb keeps there) through the output
// override.
func (s *Simulator) sourceVal(g netlist.GateID, out netlist.NetID) logic.PV {
	return s.masks[s.injAt[g]-1].apply(s.vals[out])
}

// EvalComb settles the combinational network: ties drive their constants,
// injected sources (inputs, ties, flip-flops) apply their output overrides
// to the held values, then every op runs once in levelized order.
func (s *Simulator) EvalComb() {
	for _, t := range s.ties {
		s.vals[t.out] = t.v
	}
	s.overrideSources()
	s.run(s.ops)
}

// overrideSources applies the injected sources' output overrides to the
// values their nets hold.
func (s *Simulator) overrideSources() {
	for _, g := range s.injSrcs {
		out := s.N.Gates[g].Out
		s.vals[out] = s.sourceVal(g, out)
	}
}

// run evaluates ops in order, each writing its output net from the current
// net values. A flagged op leaves the loop for runInjected; every other op
// reads its input nets directly.
func (s *Simulator) run(ops []op) {
	vals := s.vals
	for i := range ops {
		o := &ops[i]
		if o.inj != 0 {
			s.runInjected(o)
			continue
		}
		var v logic.PV
		switch o.code {
		case opNop:
			continue
		case opBuf:
			v = vals[o.a]
		case opNot:
			v = vals[o.a].Not()
		case opAnd2:
			v = vals[o.a].And(vals[o.b])
		case opNand2:
			v = vals[o.a].And(vals[o.b]).Not()
		case opOr2:
			v = vals[o.a].Or(vals[o.b])
		case opNor2:
			v = vals[o.a].Or(vals[o.b]).Not()
		case opXor:
			v = vals[o.a].Xor(vals[o.b])
		case opXnor:
			v = vals[o.a].Xor(vals[o.b]).Not()
		case opMux:
			v = logic.PVMux(vals[o.a], vals[o.b], vals[o.c])
		case opAnd, opNand:
			ins := s.ins[o.a : o.a+o.b]
			v = vals[ins[0]]
			for _, in := range ins[1:] {
				v = v.And(vals[in])
			}
			if o.code == opNand {
				v = v.Not()
			}
		case opOr, opNor:
			ins := s.ins[o.a : o.a+o.b]
			v = vals[ins[0]]
			for _, in := range ins[1:] {
				v = v.Or(vals[in])
			}
			if o.code == opNor {
				v = v.Not()
			}
		}
		vals[o.out] = v
	}
}

// runInjected evaluates a flagged op directly: it reads every input pin
// through the pin's mask, computes the gate from those reads, and applies
// the output mask. Its switch is run's gate semantics with masked operands;
// TestSimulatorMatchesReferenceEveryOp injects on every pin and output of
// every opcode and arity to keep the two in step.
func (s *Simulator) runInjected(o *op) {
	if o.out == netlist.InvalidNet {
		return // a KOutput marker: reading it as an observation point applies its pin mask
	}
	vals := s.vals
	pin := s.masks[o.inj:] // input pin p's mask is pin[p]
	var v logic.PV
	switch o.code {
	case opBuf:
		v = pin[0].apply(vals[o.a])
	case opNot:
		v = pin[0].apply(vals[o.a]).Not()
	case opAnd2:
		v = pin[0].apply(vals[o.a]).And(pin[1].apply(vals[o.b]))
	case opNand2:
		v = pin[0].apply(vals[o.a]).And(pin[1].apply(vals[o.b])).Not()
	case opOr2:
		v = pin[0].apply(vals[o.a]).Or(pin[1].apply(vals[o.b]))
	case opNor2:
		v = pin[0].apply(vals[o.a]).Or(pin[1].apply(vals[o.b])).Not()
	case opXor:
		v = pin[0].apply(vals[o.a]).Xor(pin[1].apply(vals[o.b]))
	case opXnor:
		v = pin[0].apply(vals[o.a]).Xor(pin[1].apply(vals[o.b])).Not()
	case opMux:
		v = logic.PVMux(pin[netlist.MuxS].apply(vals[o.a]),
			pin[netlist.MuxD0].apply(vals[o.b]), pin[netlist.MuxD1].apply(vals[o.c]))
	case opAnd, opNand:
		ins := s.ins[o.a : o.a+o.b]
		v = pin[0].apply(vals[ins[0]])
		for p, in := range ins[1:] {
			v = v.And(pin[p+1].apply(vals[in]))
		}
		if o.code == opNand {
			v = v.Not()
		}
	case opOr, opNor:
		ins := s.ins[o.a : o.a+o.b]
		v = pin[0].apply(vals[ins[0]])
		for p, in := range ins[1:] {
			v = v.Or(pin[p+1].apply(vals[in]))
		}
		if o.code == opNor {
			v = v.Not()
		}
	}
	vals[o.out] = s.masks[o.inj-1].apply(v)
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
	for i, f := range s.ffs {
		d := s.read(f.gate, netlist.DffD, f.d)
		if f.rstn != netlist.InvalidNet {
			d = logic.PVMux(s.read(f.gate, netlist.DffRstN, f.rstn), logic.PVAllZero, d)
		}
		s.next[i] = d
	}
	for i, f := range s.ffs {
		v := s.next[i]
		if m := s.injAt[f.gate]; m != 0 {
			v = s.masks[m-1].apply(v)
		}
		s.vals[f.q] = v
	}
}

// Run executes n Steps.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}
