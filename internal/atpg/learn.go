package atpg

import (
	"fmt"
	"time"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Learning is the product of the static learning pass: fault-independent
// value-reachability facts about one netlist, computed once per constrained
// clone and consulted in constant time before every search.
//
// The single fact kind is cantBe(net, v): in no complete assignment of the
// controllable inputs (primary inputs and flip-flop pseudo-inputs each taking
// a definite 0/1, ties driving their constants) does the net take value v.
// Facts are derived by a justification fixpoint that subsumes ternary
// constant propagation and adds depth-1 recursive learning:
//
//   - a gate output cannot take v if every local input combination that
//     produces v (its justifications) is infeasible;
//   - a justification is infeasible if one of its literals is already proven
//     unreachable, or if two of its literals force the same net — after
//     normalizing each literal through buffer/inverter chains, which is the
//     depth-1 recursive step — to different values. The normalization is what
//     catches reconvergent structure like XOR(a, NOT a) or AND(a, NOT a)
//     that plain constant propagation leaves at X.
//
// Soundness: tie seeds are trivially correct, and inductively, a complete
// assignment giving out=v must satisfy some justification literally, which
// contradicts either an inductively-correct fact or the functional
// determinism of a buffer/inverter chain. The facts are properties of the
// fault-free machine only, so they are independent of the observation set —
// one Learning serves every obs selection on the same clone.
//
// A Learning is read-only between BuildLearningOn and Extend and safe to share
// across engines and concurrent GenerateAll runs on the same netlist; every
// sharer must be quiescent across an Extend.
type Learning struct {
	n     *netlist.Netlist
	graph *netlist.Graph
	// cantBe[2*net+v] — net proven unable to take value v.
	cantBe []bool
	facts  int
	lits   []lit // fixpoint scratch
	// Worklist scratch, persisted so Extend reuses BuildLearningOn's capacity.
	inQueue []bool
	queue   []netlist.GateID
}

// lit is one literal of a justification: net must take value v.
type lit struct {
	net netlist.NetID
	v   logic.V
}

// BuildLearningOn runs the static learning pass for a netlist over its
// prebuilt forward graph (netlist.BuildGraph), sharing the graph instead of
// levelizing the netlist again: GenerateAll and the scenario providers hand
// in their drop grader's graph (sim.Grader.Graph). Cost is a small number of
// worklist passes over the gate array — negligible next to a single PODEM
// search — recorded in the "learn.build_ns" histogram with the fact count in
// the "learn.facts" counter. The graph is retained: Extend requires it to
// have been extended (netlist.Graph.Extend) before the learning is.
func BuildLearningOn(n *netlist.Netlist, graph *netlist.Graph, reg *obs.Registry) *Learning {
	start := time.Now()
	l := &Learning{
		n:       n,
		graph:   graph,
		cantBe:  make([]bool, 2*len(n.Nets)),
		inQueue: make([]bool, len(n.Gates)),
		queue:   make([]netlist.GateID, 0, len(graph.Order())),
	}
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.KTie0:
			l.mark(n.Gates[i].Out, logic.One)
		case netlist.KTie1:
			l.mark(n.Gates[i].Out, logic.Zero)
		}
	}
	// Examine every evaluable gate at least once (topological order converges
	// fastest), then chase newly derived facts to their consumers.
	l.fixpoint(graph.Order())

	reg.Counter("learn.facts").Add(int64(l.facts))
	reg.Histogram("learn.build_ns").ObserveSince(start)
	return l
}

// Extend re-synchronizes the learning with a netlist extended in place by
// appended frames (constraint.Unroller.Extend), recomputing facts only over
// the changed region instead of rebuilding from scratch. order and stale are
// the Unroller.AnnotationOrder outputs for this extension, and the shared
// graph must already have been extended with the same order (the depth sweep
// extends it through its grader first).
//
// Invalidation rule and why it is exact: every fact cantBe(net, v) is
// determined solely by the net's transitive fanin (tie seeds plus
// justification structure — mark derivations and resolve chains both walk
// toward inputs). The extension changes fanin only for nets driven by
// order[stale:] — the appended frame's gates plus everything downstream of
// the re-spliced state chain (splice buffers, the final frame, capture
// probes) — and that region is fanout-closed: appended and re-spliced nets
// are read only by gates inside it. Its complement is therefore fanin-closed,
// so facts outside the region are untouched exactly because a fresh
// BuildLearningOn would re-derive them unchanged, and the fixpoint re-run over
// order[stale:] (a valid topological suffix) converges to the same facts a
// fresh build derives inside the region: both iterate the same monotone
// derivation against the same fixed outside facts. Result: value-identical
// to BuildLearningOn on the extended netlist, at the cost of the appended
// region only.
//
// The current total fact count re-records on "learn.facts" (matching what a
// per-depth rebuild reported) and the pass cost lands in the
// "learn.extend_ns" histogram, beside "learn.build_ns".
func (l *Learning) Extend(order []netlist.GateID, stale int, reg *obs.Registry) error {
	start := time.Now()
	if len(order) != len(l.graph.Order()) {
		return fmt.Errorf("atpg: Learning.Extend order has %d gates but the shared graph has %d — extend the graph first",
			len(order), len(l.graph.Order()))
	}
	if stale < 0 || stale > len(order) {
		return fmt.Errorf("atpg: Learning.Extend stale index %d outside order of %d gates", stale, len(order))
	}
	n := l.n
	for len(l.cantBe) < 2*len(n.Nets) {
		l.cantBe = append(l.cantBe, false)
	}
	for len(l.inQueue) < len(n.Gates) {
		l.inQueue = append(l.inQueue, false)
	}
	// Clear the changed region's facts (appended nets have none yet; the
	// final frame's may have been derived through the old state chain), then
	// re-derive them against the retained outside facts.
	for _, gid := range order[stale:] {
		out := n.Gates[gid].Out
		if out == netlist.InvalidNet {
			continue // KOutput marker
		}
		for _, v := range []logic.V{logic.Zero, logic.One} {
			if idx := 2*int(out) + int(v); l.cantBe[idx] {
				l.cantBe[idx] = false
				l.facts--
			}
		}
	}
	l.fixpoint(order[stale:])

	reg.Counter("learn.facts").Add(int64(l.facts))
	reg.Histogram("learn.extend_ns").ObserveSince(start)
	return nil
}

// push enqueues a gate for (re-)examination once.
func (l *Learning) push(g netlist.GateID) {
	if !l.inQueue[g] {
		l.inQueue[g] = true
		l.queue = append(l.queue, g)
	}
}

// mark records a proven fact and schedules the net's consumers.
func (l *Learning) mark(net netlist.NetID, v logic.V) {
	idx := 2*int(net) + int(v)
	if l.cantBe[idx] {
		return
	}
	l.cantBe[idx] = true
	l.facts++
	for _, c := range l.graph.Consumers(net) {
		l.push(c)
	}
}

// fixpoint seeds the worklist with the given gates and drains it, deriving
// facts until nothing new is provable.
func (l *Learning) fixpoint(seed []netlist.GateID) {
	n := l.n
	for _, gid := range seed {
		l.push(gid)
	}
	for len(l.queue) > 0 {
		gid := l.queue[len(l.queue)-1]
		l.queue = l.queue[:len(l.queue)-1]
		l.inQueue[gid] = false
		g := &n.Gates[gid]
		if g.Out == netlist.InvalidNet {
			continue // KOutput marker
		}
		for _, v := range []logic.V{logic.Zero, logic.One} {
			if !l.cantBe[2*int(g.Out)+int(v)] && l.unjustifiable(g, v) {
				l.mark(g.Out, v)
			}
		}
	}
}

// Facts returns the number of (net, value) unreachability facts proven.
func (l *Learning) Facts() int {
	if l == nil {
		return 0
	}
	return l.facts
}

// CantBe reports whether the net is proven unable to take v in any complete
// input assignment. False negatives are expected (the pass is incomplete);
// true is always a proof.
func (l *Learning) CantBe(net netlist.NetID, v logic.V) bool {
	return l != nil && v.IsKnown() && l.cantBe[2*int(net)+int(v)]
}

// ScreenInjection reports whether the joint injection is provably untestable
// under the learned facts — the FIRE-style screen. A faulty machine diverges
// from the good machine first at an injection site whose good value differs
// from the stuck value; if every site's good net value provably never takes
// the complement of SA, no complete assignment activates the fault anywhere,
// the two machines stay identical, and no observation set can ever tell them
// apart. The claim is therefore sound for any obs selection and for the
// whole multi-site injection at once.
func (l *Learning) ScreenInjection(inj fault.Injection) bool {
	if l == nil || !inj.SA.IsKnown() || len(inj.Sites) == 0 {
		return false
	}
	act := inj.SA.Not()
	for _, s := range inj.Sites {
		g := &l.n.Gates[s.Gate]
		net := g.Out
		if s.Pin != fault.OutputPin {
			net = g.Ins[s.Pin]
		}
		if !l.cantBe[2*int(net)+int(act)] {
			return false
		}
	}
	return true
}

// unjustifiable reports whether every local justification of out=v is
// infeasible under the current facts.
func (l *Learning) unjustifiable(g *netlist.Gate, v logic.V) bool {
	switch g.Kind {
	case netlist.KBuf:
		return l.litBad(g.Ins[0], v)
	case netlist.KNot:
		return l.litBad(g.Ins[0], v.Not())
	case netlist.KAnd, netlist.KNand:
		one := v == logic.One
		if g.Kind == netlist.KNand {
			one = !one
		}
		if one {
			// AND-family output is 1 only when every input is 1.
			return !l.allInputsFeasible(g, logic.One)
		}
		// Output 0 needs some input at 0.
		for _, in := range g.Ins {
			if !l.litBad(in, logic.Zero) {
				return false
			}
		}
		return true
	case netlist.KOr, netlist.KNor:
		zero := v == logic.Zero
		if g.Kind == netlist.KNor {
			zero = !zero
		}
		if zero {
			return !l.allInputsFeasible(g, logic.Zero)
		}
		for _, in := range g.Ins {
			if !l.litBad(in, logic.One) {
				return false
			}
		}
		return true
	case netlist.KXor, netlist.KXnor:
		want1 := v == logic.One
		if g.Kind == netlist.KXnor {
			want1 = !want1
		}
		a, b := g.Ins[0], g.Ins[1]
		if want1 {
			return !l.pairFeasible(a, logic.Zero, b, logic.One) &&
				!l.pairFeasible(a, logic.One, b, logic.Zero)
		}
		return !l.pairFeasible(a, logic.Zero, b, logic.Zero) &&
			!l.pairFeasible(a, logic.One, b, logic.One)
	case netlist.KMux2:
		// The select is 0 or 1 in every complete assignment, so these two
		// justifications cover all of them.
		s, d0, d1 := g.Ins[netlist.MuxS], g.Ins[netlist.MuxD0], g.Ins[netlist.MuxD1]
		return !l.pairFeasible(s, logic.Zero, d0, v) &&
			!l.pairFeasible(s, logic.One, d1, v)
	}
	return false
}

// resolve normalizes a literal through buffer/inverter driver chains to its
// root net and adjusted polarity.
func (l *Learning) resolve(net netlist.NetID, v logic.V) (netlist.NetID, logic.V) {
	for {
		d := l.n.Nets[net].Driver
		if d == netlist.InvalidGate {
			return net, v
		}
		switch g := &l.n.Gates[d]; g.Kind {
		case netlist.KBuf:
			net = g.Ins[0]
		case netlist.KNot:
			net = g.Ins[0]
			v = v.Not()
		default:
			return net, v
		}
	}
}

// litBad reports whether the literal (or its normalized root) is already
// proven unreachable.
func (l *Learning) litBad(net netlist.NetID, v logic.V) bool {
	if l.cantBe[2*int(net)+int(v)] {
		return true
	}
	r, rv := l.resolve(net, v)
	return l.cantBe[2*int(r)+int(rv)]
}

// conjFeasible reports whether a conjunction of literals can hold in some
// complete assignment as far as the facts show. It rewrites each literal to
// its root in place, so callers must pass scratch they own.
func (l *Learning) conjFeasible(lits []lit) bool {
	for i, t := range lits {
		if l.cantBe[2*int(t.net)+int(t.v)] {
			return false
		}
		r, rv := l.resolve(t.net, t.v)
		if l.cantBe[2*int(r)+int(rv)] {
			return false
		}
		lits[i] = lit{net: r, v: rv}
	}
	for i := range lits {
		for j := i + 1; j < len(lits); j++ {
			if lits[i].net == lits[j].net && lits[i].v != lits[j].v {
				return false
			}
		}
	}
	return true
}

func (l *Learning) allInputsFeasible(g *netlist.Gate, v logic.V) bool {
	l.lits = l.lits[:0]
	for _, in := range g.Ins {
		l.lits = append(l.lits, lit{net: in, v: v})
	}
	return l.conjFeasible(l.lits)
}

func (l *Learning) pairFeasible(a netlist.NetID, av logic.V, b netlist.NetID, bv logic.V) bool {
	l.lits = append(l.lits[:0], lit{net: a, v: av}, lit{net: b, v: bv})
	return l.conjFeasible(l.lits)
}
