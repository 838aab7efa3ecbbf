package netlist

// Clone returns a deep copy of the netlist. Gate and net IDs are preserved,
// which is the contract the fault-accounting machinery relies on: fault
// sites (gate, pin) on the original remain valid on every clone.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:  n.Name,
		Gates: make([]Gate, len(n.Gates)),
		Nets:  make([]Net, len(n.Nets)),
		anon:  n.anon,
	}
	for i := range n.Gates {
		g := n.Gates[i]
		g.Ins = append([]NetID(nil), g.Ins...)
		c.Gates[i] = g
	}
	for i := range n.Nets {
		net := n.Nets[i]
		net.Fanout = append([]Pin(nil), net.Fanout...)
		c.Nets[i] = net
	}
	return c
}

// Mutators used by package constraint's transforms. They maintain the
// driver/fanout invariants that Validate checks.

// RewirePin disconnects input pin p and reconnects it to net to.
func (n *Netlist) RewirePin(p Pin, to NetID) {
	g := &n.Gates[p.Gate]
	from := g.Ins[p.In]
	n.removeFanout(from, p)
	g.Ins[p.In] = to
	n.connect(to, p)
}

// KillGate tombstones a gate: its pins are disconnected from their nets and
// its output net (if any) loses its driver. The gate keeps its name and ID.
func (n *Netlist) KillGate(id GateID) {
	g := &n.Gates[id]
	if g.Kind == KDead {
		return
	}
	for pin, in := range g.Ins {
		n.removeFanout(in, Pin{id, int32(pin)})
	}
	if g.Out != InvalidNet {
		n.Nets[g.Out].Driver = InvalidGate
	}
	g.Kind = KDead
	g.Ins = nil
	g.Out = InvalidNet
}

// AddSyntheticTie adds a tie gate flagged FSynthetic and returns its output
// net. Synthetic gates are excluded from fault universes.
func (n *Netlist) AddSyntheticTie(name string, one bool) NetID {
	k := KTie0
	if one {
		k = KTie1
	}
	return n.Gates[n.AddSyntheticGate(k, name)].Out
}

// AddSyntheticGate is AddGate with the FSynthetic flag set: the gate models
// the mission environment (constraint logic, time-frame copies) and
// contributes no faults.
func (n *Netlist) AddSyntheticGate(kind Kind, name string, ins ...NetID) GateID {
	id := n.AddGate(kind, name, ins...)
	n.Gates[id].Flags |= FSynthetic
	return id
}

// AddSyntheticInput adds a synthetic primary input and returns its net. Time
// expansion uses these for the input ports of earlier time frames.
func (n *Netlist) AddSyntheticInput(name string) NetID {
	return n.Gates[n.AddSyntheticGate(KInput, name)].Out
}

// MarkSynthetic flags existing gates FSynthetic.
func (n *Netlist) MarkSynthetic(ids ...GateID) {
	for _, id := range ids {
		n.Gates[id].Flags |= FSynthetic
	}
}

// RewireFanout moves every fanout pin of net from onto net to and returns the
// number of pins moved. This is the primitive behind input constraints: tying
// a pin to a constant means rewiring the original net's readers to a
// synthetic tie while the original driver keeps its (now unread) net.
func (n *Netlist) RewireFanout(from, to NetID) int {
	pins := append([]Pin(nil), n.Nets[from].Fanout...)
	for _, p := range pins {
		n.RewirePin(p, to)
	}
	return len(pins)
}

func (n *Netlist) removeFanout(net NetID, p Pin) {
	fo := n.Nets[net].Fanout
	for i, q := range fo {
		if q == p {
			fo[i] = fo[len(fo)-1]
			n.Nets[net].Fanout = fo[:len(fo)-1]
			return
		}
	}
}
