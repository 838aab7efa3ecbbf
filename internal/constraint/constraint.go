// Package constraint implements composable mission-mode transforms: circuit
// manipulations that restrict a netlist clone to what the design can actually
// do in its functional (on-line) configuration. The paper's functionally
// untestable faults are exactly the faults the ATPG engine proves Untestable
// on such a constrained clone.
//
// Every transform operates on a netlist.Clone and preserves the identity
// contract (append gates/nets, tombstone, rewire — never renumber), so fault
// sites enumerated on the original netlist stay valid on the transformed
// clone and verdicts can be projected back (fault.Project).
//
// # Soundness convention
//
// A transform must OVER-approximate mission-mode capability: every stimulus
// the real mission configuration can produce must remain producible on the
// constrained clone. Then "Untestable on the clone" implies "untestable in
// mission mode", which is the direction the identification flow needs —
// constraints may only ever remove spurious test-mode freedom (scan inputs,
// debug pins, unreachable states), never functional freedom.
//
// # Multi-frame fault injection
//
// Transforms that replicate original gates — Unroll's Frames-1 time-frame
// copies — record each original gate's replicas in the fault.SiteMap that
// Apply hands every transform and returns. A permanent stuck-at is present
// in every clock cycle, so on a time-expanded clone the faithful model
// injects the stuck value at the original site and at every frame replica
// simultaneously; the ATPG engine, the grading simulators and the exhaustive
// oracle all accept the map and reason about that joint injection, making
// Untestable a proof about the permanent fault rather than about a fault
// that winks into existence in the final frame.
//
// # Stem attribution on rewired nets
//
// Rewiring the readers of a net (Tie, OneHot) leaves the original driver
// with an unread output, so the driver's own output-pin (stem) faults are
// classified from the constrained configuration's viewpoint: the pin is not
// part of the mission circuit and its faults come out untestable. For
// disabled test/debug pins that matches the paper's accounting. Faults on
// the readers' input pins (the branches) keep exact per-pin stuck-at
// semantics throughout. Verdicts are, in every case, machine-checked proofs
// about the scenario's model — internal/testutil's exhaustive oracle
// re-derives them by brute force; how faithfully the model captures the real
// mission configuration is decided by the scenario author, not the engine.
package constraint

import (
	"fmt"
	"strings"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// Transform is one mission-mode constraint, applied in place to a clone.
// Transforms are stateless: the site map belongs to the caller, which keeps
// a shared Scenario value safe to apply to any number of clones
// concurrently.
type Transform interface {
	// Describe renders the transform for reports.
	Describe() string
	// Apply mutates the clone, preserving the identity contract, and records
	// in sm every replica it makes of an original gate, so faults enumerated
	// on the clone expand to joint multi-site injections. Transforms that
	// replicate nothing (Tie, OneHot) ignore sm.
	Apply(c *netlist.Netlist, sm *fault.SiteMap) error
}

// Apply runs a transform stack on the clone in order, validates the result,
// and returns the merged replica site map (empty, never nil, when no
// transform replicates gates; Empty() tells the two apart so callers can
// skip multi-site machinery on purely combinational stacks). When the stack
// ends in an Unroll it also returns that unroll's Unroller, so the caller
// can Extend the same clone to deeper frame counts; the Unroller is nil
// exactly when the stack does not end in an Unroll.
func Apply(c *netlist.Netlist, ts ...Transform) (*Unroller, *fault.SiteMap, error) {
	sm := fault.NewSiteMap()
	var ur *Unroller
	for i, t := range ts {
		var err error
		if u, ok := t.(Unroll); ok && i == len(ts)-1 {
			ur, err = NewUnroller(c, sm, u)
		} else {
			err = t.Apply(c, sm)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("constraint %s: %w", t.Describe(), err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("constraint: transformed clone invalid: %w", err)
	}
	return ur, sm, nil
}

// Tie pins a named net to a constant: every reader of the net is rewired to a
// synthetic tie. This models mission-disabled inputs — scan enables, test
// mode selects, debug pins — and constant state bits. The original driver
// keeps its (now unread) net, so its faults become provably unobservable,
// which is the correct mission-mode verdict for a disconnected pin.
type Tie struct {
	Net   string  // net name on the clone (input port nets carry the port name)
	Value logic.V // logic.Zero or logic.One
}

// Describe implements Transform.
func (t Tie) Describe() string { return fmt.Sprintf("tie(%s=%s)", t.Net, t.Value) }

// Apply implements Transform.
func (t Tie) Apply(c *netlist.Netlist, _ *fault.SiteMap) error {
	if !t.Value.IsKnown() {
		return fmt.Errorf("tie value must be 0 or 1, got %s", t.Value)
	}
	net, ok := c.NetByName(t.Net)
	if !ok {
		return fmt.Errorf("net %q is missing or ambiguous", t.Net)
	}
	tie := c.AddSyntheticTie(uniquePrefix(c, "tie$"+t.Net), t.Value == logic.One)
	c.RewireFanout(net, tie)
	return nil
}

// OneHot constrains a field of input nets so that at most one of them is 1:
// the readers of each net are rewired to one output of a synthetic decoder
// driven by fresh synthetic select inputs. This models one-hot-decoded
// control fields (e.g. an opcode field after the instruction decoder): the
// search may still choose which line fires, or — via the decoder's reserved
// idle encodings — none, but can never fire two at once.
//
// "At most one hot" (rather than exactly one) keeps the transform an
// over-approximation of any mission encoding, so untestability verdicts stay
// sound regardless of whether the real decoder has idle encodings. The
// decoder is therefore sized to 2^bits >= k+1: at least one select encoding
// always maps to "no line fires".
type OneHot struct {
	Nets []string // the constrained field, one net name per line
}

// Describe implements Transform.
func (o OneHot) Describe() string { return fmt.Sprintf("onehot(%v)", o.Nets) }

// Apply implements Transform.
func (o OneHot) Apply(c *netlist.Netlist, _ *fault.SiteMap) error {
	k := len(o.Nets)
	if k < 2 {
		return fmt.Errorf("one-hot field needs >= 2 nets, got %d", k)
	}
	nets := make([]netlist.NetID, k)
	for i, name := range o.Nets {
		id, ok := c.NetByName(name)
		if !ok {
			return fmt.Errorf("net %q is missing or ambiguous", name)
		}
		nets[i] = id
	}
	bits := 1
	for 1<<uint(bits) < k+1 { // reserve an idle encoding
		bits++
	}
	prefix := uniquePrefix(c, "oh$"+o.Nets[0])
	sel := make([]netlist.NetID, bits)
	inv := make([]netlist.NetID, bits)
	for b := 0; b < bits; b++ {
		sel[b] = c.AddSyntheticInput(fmt.Sprintf("%s_s%d", prefix, b))
		inv[b] = c.Gates[c.AddSyntheticGate(netlist.KNot, fmt.Sprintf("%s_n%d", prefix, b), sel[b])].Out
	}
	for v := 0; v < k; v++ {
		terms := make([]netlist.NetID, bits)
		for b := 0; b < bits; b++ {
			if v>>uint(b)&1 == 1 {
				terms[b] = sel[b]
			} else {
				terms[b] = inv[b]
			}
		}
		line := c.Gates[c.AddSyntheticGate(netlist.KAnd, fmt.Sprintf("%s_o%d", prefix, v), terms...)].Out
		c.RewireFanout(nets[v], line)
	}
	return nil
}

// uniquePrefix returns base, suffixed if any existing gate or net name
// already lives under it (equals it, or starts with it plus "_"). Every
// transform names what it adds from such a prefix (Tie its tie, OneHot and
// Unroll whole families of names), so repeated application cannot collide
// with earlier applications or with the design's own names.
func uniquePrefix(c *netlist.Netlist, base string) string {
	free := func(p string) bool {
		pre := p + "_"
		for i := range c.Gates {
			if n := c.Gates[i].Name; n == p || strings.HasPrefix(n, pre) {
				return false
			}
		}
		for i := range c.Nets {
			if n := c.Nets[i].Name; n == p || strings.HasPrefix(n, pre) {
				return false
			}
		}
		return true
	}
	if free(base) {
		return base
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s$%d", base, i)
		if free(cand) {
			return cand
		}
	}
}

// outputCone returns the fan-in cone of the primary outputs
// (netlist.FaninCone): a flip-flop is in it exactly when its state can reach
// a primary output, possibly through further flip-flops.
func outputCone(c *netlist.Netlist) []bool {
	pos := c.PrimaryOutputs()
	seeds := make([]netlist.NetID, len(pos))
	for i, g := range pos {
		seeds[i] = c.Gate(g).Ins[0]
	}
	return c.FaninCone(true, seeds...)
}

// ObsFn selects the observation points of a scenario on the transformed
// clone. Nil in a scenario means full-scan observation. The flow's campaign
// providers call the selector themselves — a ScenarioProvider on its
// constrained clone, a PatternProvider on the original netlist (defaulting
// to ObserveOutputs, the points an on-line checker can compare) — so a
// selector must be a pure function of the netlist it is handed, safe to
// invoke on any clone that honors the identity contract.
type ObsFn func(*netlist.Netlist) []sim.ObsPoint

// ObserveFullScan observes primary outputs and flip-flop D pins — the
// full-scan reference.
func ObserveFullScan(c *netlist.Netlist) []sim.ObsPoint { return sim.CombObsPoints(c) }

// ObserveOutputs observes primary outputs only — what an on-line functional
// test can compare. Flip-flop D pins are not observed: mission mode never
// shifts state out.
//
// On a clone with live flip-flops this models SINGLE-CYCLE observation:
// every register boundary is opaque, so faults whose only path to an output
// crosses state are untestable within the scenario even though a longer
// mission run might surface them. That is the natural semantics for unrolled
// (time-expanded) clones, where the registers have been eliminated and the
// final frame is the observation cycle; for clones with live state prefer
// ObserveOnline unless single-cycle semantics is intended.
func ObserveOutputs(c *netlist.Netlist) []sim.ObsPoint { return sim.OutputObsPoints(c) }

// ObserveOnline observes primary outputs plus the D pins of exactly those
// flip-flops whose state can structurally reach a primary output (crossing
// further registers). This is the sound single-frame approximation of
// multi-cycle on-line observation: a fault effect captured into such a
// flip-flop may surface at an output in a later cycle, so it must count as
// potentially observed — while state that is never functionally read out
// (trace/debug registers, write-only status) cannot expose faults no matter
// how long the mission runs, which is precisely the paper's on-line blind
// spot.
func ObserveOnline(c *netlist.Netlist) []sim.ObsPoint {
	var pts []sim.ObsPoint
	for _, g := range c.PrimaryOutputs() {
		pts = append(pts, sim.ObsPoint{Gate: g, Pin: 0})
	}
	reaching := outputCone(c)
	for _, f := range c.FlipFlops() {
		if reaching[f] {
			pts = append(pts, sim.ObsPoint{Gate: f, Pin: netlist.DffD})
		}
	}
	return pts
}

// ObserveOutputsAndCaptures observes primary outputs plus, in gate order,
// the capture probes (netlist.FProbe) Unroll planted on observable
// next-state nets — the sound observation model for time-expanded
// scenarios: a fault effect the final frame writes into output-reaching
// state counts as (eventually) observed, while state that never surfaces
// functionally does not. On clones without an Unroll transform it degrades
// to ObserveOutputs.
func ObserveOutputsAndCaptures(c *netlist.Netlist) []sim.ObsPoint {
	pts := sim.OutputObsPoints(c)
	for i := range c.Gates {
		if c.Gates[i].Flags&netlist.FProbe != 0 {
			pts = append(pts, sim.ObsPoint{Gate: netlist.GateID(i), Pin: 0})
		}
	}
	return pts
}
