package netlist

import "fmt"

// Levelize returns the live combinational gates of the netlist in topological
// order (every gate appears after all combinational gates in its fanin), or
// an error naming a gate on a combinational cycle.
//
// Sources for levelization are primary inputs, ties and flip-flop outputs;
// flip-flop input pins and primary outputs are sinks. KOutput gates are
// included at the end of the order so evaluators can treat them uniformly.
func (n *Netlist) Levelize() ([]GateID, error) {
	// indegree counts combinational fanin gates only.
	indeg := make([]int32, len(n.Gates))
	queue := make([]GateID, 0, len(n.Gates))
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind == KDead || g.Kind.IsSource() {
			continue
		}
		d := int32(0)
		for _, in := range g.Ins {
			drv := n.Nets[in].Driver
			if drv != InvalidGate && !n.Gates[drv].Kind.IsSource() && n.Gates[drv].Kind != KDead {
				d++
			}
		}
		indeg[i] = d
		if d == 0 {
			queue = append(queue, GateID(i))
		}
	}

	order := make([]GateID, 0, len(n.Gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		order = append(order, g)
		out := n.Gates[g].Out
		if out == InvalidNet {
			continue
		}
		for _, p := range n.Nets[out].Fanout {
			tg := &n.Gates[p.Gate]
			if tg.Kind == KDead || tg.Kind.IsSource() {
				continue
			}
			indeg[p.Gate]--
			if indeg[p.Gate] == 0 {
				queue = append(queue, p.Gate)
			}
		}
	}

	want := 0
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind != KDead && !g.Kind.IsSource() {
			want++
		}
	}
	if len(order) != want {
		for i := range n.Gates {
			g := &n.Gates[i]
			if g.Kind != KDead && !g.Kind.IsSource() && indeg[i] > 0 {
				return nil, fmt.Errorf("netlist %q: combinational cycle through gate %q", n.Name, g.Name)
			}
		}
		return nil, fmt.Errorf("netlist %q: combinational cycle", n.Name)
	}
	return order, nil
}

// FaninCone marks the live gates in the transitive fanin of the given nets:
// cone[g] reports whether gate g's output can reach one of them. The walk
// stops at primary inputs and ties and skips dead drivers. seq says whether
// it crosses flip-flops:
//
//   - seq: a flip-flop's D and reset pins are fanin like any other, so the
//     cone is the sequential, any-number-of-cycles notion of reachability. A
//     flip-flop in the cone of the primary outputs holds state an on-line
//     test can read out eventually, and a gate outside the cone of every
//     observation point can never influence one, however long the circuit
//     runs.
//   - !seq: a flip-flop the walk meets is marked, since its output reaches a
//     root, but its pins are not followed. This is the combinational
//     (full-scan, one-frame) cone, in which flip-flop outputs are
//     pseudo-inputs and nothing crosses a clock edge.
//
// One pass, linear in the circuit.
func (n *Netlist) FaninCone(seq bool, roots ...NetID) []bool {
	cone := make([]bool, len(n.Gates))
	var stack []GateID
	push := func(net NetID) {
		if net == InvalidNet {
			return
		}
		drv := n.Nets[net].Driver
		if drv != InvalidGate && !cone[drv] && n.Gates[drv].Kind != KDead {
			cone[drv] = true
			stack = append(stack, drv)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seq && n.Gates[g].Kind.IsState() {
			continue
		}
		for _, in := range n.Gates[g].Ins {
			push(in)
		}
	}
	return cone
}

// FanoutCone returns the set of live gates in the transitive fanout of the
// given nets, crossing flip-flops.
func (n *Netlist) FanoutCone(roots ...NetID) map[GateID]bool {
	seen := map[GateID]bool{}
	var stack []NetID
	stack = append(stack, roots...)
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range n.Nets[net].Fanout {
			g := &n.Gates[p.Gate]
			if g.Kind == KDead || seen[p.Gate] {
				continue
			}
			seen[p.Gate] = true
			if g.Out != InvalidNet {
				stack = append(stack, g.Out)
			}
		}
	}
	return seen
}
