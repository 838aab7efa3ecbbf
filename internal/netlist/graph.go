package netlist

import "fmt"

// Graph is a dense forward-propagation index over a levelized netlist: the
// levelized evaluation order, each gate's position in that order, and a
// flattened, de-duplicated consumer list per net. It is the exported
// implication graph that event-driven fault simulation walks — it needs "who
// reads this net" and "in what order do effects settle" without re-deriving
// them from Net.Fanout pin lists.
//
// A Graph is read-only between construction and Extend, so one instance can
// be shared by any number of concurrent engines and graders over the same
// netlist. Extend mutates the instance in place; every sharer must be
// quiescent across the call and sees the extended netlist afterwards.
type Graph struct {
	order []GateID
	// pos[g] is g's index in order, or -1 for gates the combinational
	// evaluation never schedules (sources and dead gates).
	pos []int32
	// conStart/cons form a CSR over nets: cons[conStart[n]:conStart[n+1]]
	// lists the distinct live gates with at least one input pin on net n.
	// A gate reading the same net on several pins appears once.
	conStart []int32
	cons     []GateID
}

// BuildGraph levelizes the netlist and flattens its net-to-reader relation.
// It fails only if Levelize does (combinational cycle).
func (n *Netlist) BuildGraph() (*Graph, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	g := &Graph{order: order, pos: make([]int32, len(n.Gates))}
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, id := range order {
		g.pos[id] = int32(i)
	}
	g.buildConsumers(n)
	return g, nil
}

// buildConsumers (re)builds the consumer CSR over every net of n, reusing
// the capacity the graph already holds. Two passes over the fanout pin
// lists: count distinct readers per net, then fill. lastNet[gate]
// de-duplicates multi-pin reads of one net — valid because each pass walks
// one net's pins at a time.
func (g *Graph) buildConsumers(n *Netlist) {
	if cap(g.conStart) < len(n.Nets)+1 {
		g.conStart = make([]int32, len(n.Nets)+1)
	}
	g.conStart = g.conStart[:len(n.Nets)+1]
	clear(g.conStart)
	lastNet := make([]NetID, len(n.Gates))
	for i := range lastNet {
		lastNet[i] = InvalidNet
	}
	for nid := range n.Nets {
		for _, pin := range n.Nets[nid].Fanout {
			gid := pin.Gate
			if n.Gates[gid].Kind == KDead {
				continue
			}
			if lastNet[gid] == NetID(nid) {
				continue
			}
			lastNet[gid] = NetID(nid)
			g.conStart[nid+1]++
		}
	}
	for i := 1; i < len(g.conStart); i++ {
		g.conStart[i] += g.conStart[i-1]
	}
	total := int(g.conStart[len(n.Nets)])
	if cap(g.cons) < total {
		g.cons = make([]GateID, total)
	}
	g.cons = g.cons[:total]
	fill := make([]int32, len(n.Nets))
	copy(fill, g.conStart[:len(n.Nets)])
	for i := range lastNet {
		lastNet[i] = InvalidNet
	}
	for nid := range n.Nets {
		for _, pin := range n.Nets[nid].Fanout {
			gid := pin.Gate
			if n.Gates[gid].Kind == KDead {
				continue
			}
			if lastNet[gid] == NetID(nid) {
				continue
			}
			lastNet[gid] = NetID(nid)
			g.cons[fill[nid]] = gid
			fill[nid]++
		}
	}
}

// Extend rebuilds the graph in place over a netlist that grew by appended
// gates and nets since the graph was built, from a caller-supplied
// topological order of the whole live combinational network (e.g.
// constraint.Unroller.AnnotationOrder). The order replaces the evaluation
// order wholesale — any valid topological order yields identical simulation
// values — and the consumer CSR is rebuilt over all nets, because appending
// can change old nets' reader lists both ways (an appended frame reads
// frame-invariant nets; a re-spliced pin stops reading an old state net).
// What Extend skips is the Kahn levelization BuildGraph pays, and it reuses
// the position and CSR capacity already allocated.
//
// The order must list every live evaluable gate (not a source, not dead)
// exactly once, each after every live evaluable gate driving one of its
// inputs. Extend validates that contract in one pass over the pin lists and
// returns an error on violation, leaving the graph unusable. The order slice
// is retained; the caller must not modify it afterwards.
func (g *Graph) Extend(n *Netlist, order []GateID) error {
	want := 0
	for i := range n.Gates {
		if k := n.Gates[i].Kind; k != KDead && !k.IsSource() {
			want++
		}
	}
	if len(order) != want {
		return fmt.Errorf("netlist %q: graph extension order has %d gates, netlist has %d live evaluable gates",
			n.Name, len(order), want)
	}
	g.order = order
	if cap(g.pos) < len(n.Gates) {
		g.pos = make([]int32, len(n.Gates))
	}
	g.pos = g.pos[:len(n.Gates)]
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, id := range order {
		gate := &n.Gates[id]
		if gate.Kind == KDead || gate.Kind.IsSource() {
			return fmt.Errorf("netlist %q: graph extension order includes non-evaluable gate %q", n.Name, gate.Name)
		}
		if g.pos[id] != -1 {
			return fmt.Errorf("netlist %q: graph extension order lists gate %q twice", n.Name, gate.Name)
		}
		g.pos[id] = int32(i)
	}
	for i, id := range order {
		for _, in := range n.Gates[id].Ins {
			drv := n.Nets[in].Driver
			if drv != InvalidGate && g.pos[drv] >= int32(i) {
				return fmt.Errorf("netlist %q: graph extension order is not topological: %q before its driver %q",
					n.Name, n.Gates[id].Name, n.Gates[drv].Name)
			}
		}
	}

	g.buildConsumers(n)
	return nil
}

// Order returns the levelized combinational evaluation order (sources and
// dead gates excluded; KOutput markers included). Callers must not modify it.
func (g *Graph) Order() []GateID { return g.order }

// Pos returns gate id's position in the evaluation order, or -1 if the gate
// is never evaluated (a source or dead gate).
func (g *Graph) Pos(id GateID) int32 { return g.pos[id] }

// Consumers returns the distinct live gates reading net n. Callers must not
// modify the returned slice.
func (g *Graph) Consumers(n NetID) []GateID {
	return g.cons[g.conStart[n]:g.conStart[n+1]]
}
