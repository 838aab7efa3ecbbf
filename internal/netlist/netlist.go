// Package netlist implements the flat gate-level netlist representation the
// whole library operates on: a cell library of combinational primitives plus
// D flip-flops, nets with single drivers and explicit fanout pin lists, and a
// builder API used by tests and by the datapath generators in package dp.
//
// # Identity contract
//
// Gate and net IDs are dense indices. Any circuit manipulation must work on a
// Clone and only ever append new gates/nets, tombstone existing gates (KDead)
// or rewire pins; it must never renumber. Fault universes built on the
// original netlist therefore remain valid — fault site (gate, pin) — on every
// derived netlist, which is what lets analyses compare fault lists across
// manipulated variants of one design. The KDead, FSynthetic and FProbe
// markers exist to support this convention; package constraint holds the
// manipulations.
//
// # Names
//
// Gate and net names are labels for reports, tests and transform lookups,
// not an index: a netlist keeps no name map, and nothing stops two gates or
// two nets from sharing a name. NetByName and GateByName scan the tables and
// succeed only on a unique match, so an ambiguous name reads as not found.
package netlist

import (
	"fmt"
)

// NetID identifies a net within a Netlist.
type NetID int32

// GateID identifies a gate within a Netlist.
type GateID int32

// InvalidNet is the nil value for net references (e.g. the output of a
// primary-output gate).
const InvalidNet NetID = -1

// InvalidGate is the nil value for gate references (e.g. the driver of a
// floating net).
const InvalidGate GateID = -1

// Kind enumerates the cell library.
type Kind uint8

// The cell library. Scan flip-flops are modelled structurally as an explicit
// KMux2 in front of a KDFF (exactly the paper's Fig. 2), so the analysis
// engines need no scan-specific primitive.
const (
	KInput  Kind = iota // primary input; no input pins, one output net
	KOutput             // primary output; one input pin, no output net
	KTie0               // constant 0 source
	KTie1               // constant 1 source
	KBuf
	KNot
	KAnd  // n-input, n >= 2
	KNand // n-input, n >= 2
	KOr   // n-input, n >= 2
	KNor  // n-input, n >= 2
	KXor  // 2-input
	KXnor // 2-input
	KMux2 // inputs: D0, D1, S
	KDFF  // input: D; output Q, clocked by the implicit global clock
	KDFFR // inputs: D, RSTN (active-low reset to 0); output Q
	KDead // tombstone left by circuit manipulation; ignored everywhere
	kindCount
)

// Mux2 pin indices.
const (
	MuxD0 = 0
	MuxD1 = 1
	MuxS  = 2
)

// DFFR pin indices.
const (
	DffD    = 0
	DffRstN = 1
)

var kindNames = [kindCount]string{
	"INPUT", "OUTPUT", "TIE0", "TIE1", "BUF", "NOT", "AND", "NAND",
	"OR", "NOR", "XOR", "XNOR", "MUX2", "DFF", "DFFR", "DEAD",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsState reports whether the kind is a sequential element.
func (k Kind) IsState() bool { return k == KDFF || k == KDFFR }

// IsSource reports whether the gate's output is a source for combinational
// evaluation (primary input, tie, or flip-flop output).
func (k Kind) IsSource() bool {
	return k == KInput || k == KTie0 || k == KTie1 || k.IsState()
}

// IsComb reports whether the kind is a combinational gate with an output.
func (k Kind) IsComb() bool {
	switch k {
	case KBuf, KNot, KAnd, KNand, KOr, KNor, KXor, KXnor, KMux2:
		return true
	}
	return false
}

// Flags carries per-gate bookkeeping bits.
type Flags uint8

const (
	// FSynthetic marks gates added by circuit manipulation. They are
	// excluded from fault universes: they exist only to model the mission
	// configuration, not to be tested.
	FSynthetic Flags = 1 << iota
	// FProbe marks the synthetic capture probes a time expansion plants on
	// observable next-state nets: observation points, not logic.
	FProbe
)

// Pin addresses one input pin of a gate.
type Pin struct {
	Gate GateID
	In   int32 // input pin index within the gate
}

// Gate is one cell instance.
type Gate struct {
	Kind  Kind
	Flags Flags
	Name  string
	Ins   []NetID
	Out   NetID // InvalidNet for KOutput and KDead
}

// NumPins returns the number of fault-site pins of the gate (inputs plus
// output when present).
func (g *Gate) NumPins() int {
	n := len(g.Ins)
	if g.Out != InvalidNet {
		n++
	}
	return n
}

// Net is one wire. Driver is the gate whose output drives it (InvalidGate if
// floating), Fanout lists every input pin reading it.
type Net struct {
	Name   string
	Driver GateID
	Fanout []Pin
}

// Netlist is a flat gate-level circuit: its gate and net tables.
type Netlist struct {
	Name  string
	Gates []Gate
	Nets  []Net

	anon int // counter behind auto-generated names
}

// New returns an empty netlist.
func New(name string) *Netlist { return &Netlist{Name: name} }

// NumGates returns the number of live (non-dead) gates.
func (n *Netlist) NumGates() int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Kind != KDead {
			c++
		}
	}
	return c
}

// Gate returns the gate with the given ID.
func (n *Netlist) Gate(id GateID) *Gate { return &n.Gates[id] }

// Net returns the net with the given ID.
func (n *Netlist) Net(id NetID) *Net { return &n.Nets[id] }

// NetByName returns the one net carrying name. It reports false when no net
// or more than one net has the name.
func (n *Netlist) NetByName(name string) (NetID, bool) {
	found := InvalidNet
	for i := range n.Nets {
		if n.Nets[i].Name == name {
			if found != InvalidNet {
				return InvalidNet, false
			}
			found = NetID(i)
		}
	}
	return found, found != InvalidNet
}

// GateByName returns the one gate carrying name. It reports false when no
// gate or more than one gate has the name.
func (n *Netlist) GateByName(name string) (GateID, bool) {
	found := InvalidGate
	for i := range n.Gates {
		if n.Gates[i].Name == name {
			if found != InvalidGate {
				return InvalidGate, false
			}
			found = GateID(i)
		}
	}
	return found, found != InvalidGate
}

// Reserve grows the gate and net slices' capacity so at least the given
// number of further gates and nets can be appended without reallocation.
// Bulk manipulations whose output size is known up front (e.g. time
// expansion, which appends Frames-1 copies of the combinational logic) call
// this once instead of paying the append growth doublings.
func (n *Netlist) Reserve(gates, nets int) {
	if free := cap(n.Gates) - len(n.Gates); free < gates {
		grown := make([]Gate, len(n.Gates), len(n.Gates)+gates)
		copy(grown, n.Gates)
		n.Gates = grown
	}
	if free := cap(n.Nets) - len(n.Nets); free < nets {
		grown := make([]Net, len(n.Nets), len(n.Nets)+nets)
		copy(grown, n.Nets)
		n.Nets = grown
	}
}

// NewNet creates a net. An empty name is auto-generated.
func (n *Netlist) NewNet(name string) NetID {
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Name: n.autoName(name, "n"), Driver: InvalidGate})
	return id
}

// AddGate creates a gate of the given kind with explicit input nets, driving
// a fresh output net (except KOutput, which has none). The output net is
// named after the gate. An empty gate name is auto-generated.
func (n *Netlist) AddGate(kind Kind, name string, ins ...NetID) GateID {
	name = n.autoName(name, "g")
	out := InvalidNet
	if kind != KOutput {
		out = n.NewNet(name)
	}
	return n.addGate(kind, name, out, ins)
}

// AddGateOut is AddGate with a caller-provided (pre-created, undriven)
// output net instead of a fresh one. It enables feedback structures such as
// enabled registers, where the flip-flop output net must exist before the
// recirculation mux that feeds the flip-flop can be built.
func (n *Netlist) AddGateOut(kind Kind, name string, out NetID, ins ...NetID) GateID {
	if kind == KOutput || kind == KDead {
		panic("netlist: AddGateOut cannot create " + kind.String())
	}
	if n.Nets[out].Driver != InvalidGate {
		panic(fmt.Sprintf("netlist: AddGateOut: net %q already driven", n.Nets[out].Name))
	}
	return n.addGate(kind, n.autoName(name, "g"), out, ins)
}

// autoName returns name, or a fresh "prefix$N" name when name is empty.
func (n *Netlist) autoName(name, prefix string) string {
	if name == "" {
		name = fmt.Sprintf("%s$%d", prefix, n.anon)
		n.anon++
	}
	return name
}

// addGate appends the gate, makes it the driver of out (unless InvalidNet)
// and connects its input pins.
func (n *Netlist) addGate(kind Kind, name string, out NetID, ins []NetID) GateID {
	if err := checkPinCount(kind, len(ins)); err != nil {
		panic(fmt.Sprintf("netlist: gate %q: %v", name, err))
	}
	id := GateID(len(n.Gates))
	if out != InvalidNet {
		n.Nets[out].Driver = id
	}
	n.Gates = append(n.Gates, Gate{Kind: kind, Name: name, Ins: append([]NetID(nil), ins...), Out: out})
	for pin, in := range ins {
		n.connect(in, Pin{Gate: id, In: int32(pin)})
	}
	return id
}

func (n *Netlist) connect(net NetID, p Pin) {
	if net == InvalidNet {
		panic("netlist: connecting invalid net")
	}
	n.Nets[net].Fanout = append(n.Nets[net].Fanout, p)
}

func checkPinCount(kind Kind, got int) error {
	var want string
	ok := false
	switch kind {
	case KInput, KTie0, KTie1:
		ok, want = got == 0, "0"
	case KOutput, KBuf, KNot, KDFF:
		ok, want = got == 1, "1"
	case KXor, KXnor, KDFFR:
		ok, want = got == 2, "2"
	case KAnd, KNand, KOr, KNor:
		ok, want = got >= 2, ">=2"
	case KMux2:
		ok, want = got == 3, "3"
	case KDead:
		ok, want = got == 0, "0"
	default:
		return fmt.Errorf("unknown kind %v", kind)
	}
	if !ok {
		return fmt.Errorf("%v needs %s inputs, got %d", kind, want, got)
	}
	return nil
}

// Convenience builders. Each returns the output net of the new gate.

// Input adds a primary input whose net carries the given name.
func (n *Netlist) Input(name string) NetID { return n.Gates[n.AddGate(KInput, name)].Out }

// OutputPort adds a primary output reading net in.
func (n *Netlist) OutputPort(name string, in NetID) GateID { return n.AddGate(KOutput, name, in) }

// Tie0 adds a constant-0 source.
func (n *Netlist) Tie0(name string) NetID { return n.Gates[n.AddGate(KTie0, name)].Out }

// Tie1 adds a constant-1 source.
func (n *Netlist) Tie1(name string) NetID { return n.Gates[n.AddGate(KTie1, name)].Out }

// Buf adds a buffer.
func (n *Netlist) Buf(name string, in NetID) NetID { return n.Gates[n.AddGate(KBuf, name, in)].Out }

// Not adds an inverter.
func (n *Netlist) Not(name string, in NetID) NetID { return n.Gates[n.AddGate(KNot, name, in)].Out }

// And adds an n-input AND gate.
func (n *Netlist) And(name string, ins ...NetID) NetID {
	return n.Gates[n.AddGate(KAnd, name, ins...)].Out
}

// Nand adds an n-input NAND gate.
func (n *Netlist) Nand(name string, ins ...NetID) NetID {
	return n.Gates[n.AddGate(KNand, name, ins...)].Out
}

// Or adds an n-input OR gate.
func (n *Netlist) Or(name string, ins ...NetID) NetID {
	return n.Gates[n.AddGate(KOr, name, ins...)].Out
}

// Nor adds an n-input NOR gate.
func (n *Netlist) Nor(name string, ins ...NetID) NetID {
	return n.Gates[n.AddGate(KNor, name, ins...)].Out
}

// Xor adds a 2-input XOR gate.
func (n *Netlist) Xor(name string, a, b NetID) NetID {
	return n.Gates[n.AddGate(KXor, name, a, b)].Out
}

// Xnor adds a 2-input XNOR gate.
func (n *Netlist) Xnor(name string, a, b NetID) NetID {
	return n.Gates[n.AddGate(KXnor, name, a, b)].Out
}

// Mux2 adds a 2:1 multiplexer: out = s ? d1 : d0.
func (n *Netlist) Mux2(name string, d0, d1, s NetID) NetID {
	return n.Gates[n.AddGate(KMux2, name, d0, d1, s)].Out
}

// DFF adds a D flip-flop.
func (n *Netlist) DFF(name string, d NetID) NetID {
	return n.Gates[n.AddGate(KDFF, name, d)].Out
}

// DFFR adds a D flip-flop with active-low reset-to-0.
func (n *Netlist) DFFR(name string, d, rstn NetID) NetID {
	return n.Gates[n.AddGate(KDFFR, name, d, rstn)].Out
}

// PrimaryInputs returns the live KInput gates in ID order.
func (n *Netlist) PrimaryInputs() []GateID { return n.gatesOfKind(KInput) }

// PrimaryOutputs returns the live KOutput gates in ID order.
func (n *Netlist) PrimaryOutputs() []GateID { return n.gatesOfKind(KOutput) }

// FlipFlops returns the live KDFF/KDFFR gates in ID order.
func (n *Netlist) FlipFlops() []GateID {
	var out []GateID
	for i := range n.Gates {
		if n.Gates[i].Kind.IsState() {
			out = append(out, GateID(i))
		}
	}
	return out
}

func (n *Netlist) gatesOfKind(k Kind) []GateID {
	var out []GateID
	for i := range n.Gates {
		if n.Gates[i].Kind == k {
			out = append(out, GateID(i))
		}
	}
	return out
}
