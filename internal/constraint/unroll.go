package constraint

import (
	"fmt"
	"time"

	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Unroll replaces the full-scan state assumption by a k-frame sequential
// reach constraint: the clone's flip-flops are tombstoned and their output
// nets are re-driven by Frames-1 appended synthetic copies of the
// combinational logic, chained through the next-state function. PODEM then
// assigns only the frame inputs and the free frame-0 state, so every state
// it can present to the final frame is the image of Frames-1 functional
// clock cycles — pseudo-inputs stop being freely controllable.
//
// The free initial state over-approximates mission reachability (every
// mission state at cycle t >= Frames-1 is the image of Frames-1 functional
// steps from *some* state), so Untestable verdicts remain sound mission
// evidence.
//
// Frame copies are synthetic, so they contribute no fault sites of their own
// — but a permanent stuck-at is present in *every* clock cycle, and Unroll
// records each original gate's per-frame copies in the fault.SiteMap it is
// handed. Expanding a fault through that map injects the stuck value at the
// original site and at every frame replica simultaneously, which is the
// faithful model of a permanent defect on the time-expanded circuit.
//
// Faults on the tombstoned flip-flop gates themselves do not exist on the
// unrolled clone and receive no verdict from this scenario; the flow reports
// them from other scenarios or leaves them unresolved.
//
// Unroll is the one-shot wrapper over Unroller, which additionally supports
// extending an already-unrolled clone frame by frame (the depth sweep's
// workhorse).
type Unroll struct {
	// Frames is the total frame count including the final observed frame.
	Frames int
}

// Describe implements Transform.
func (u Unroll) Describe() string { return fmt.Sprintf("unroll(frames=%d,init=free)", u.Frames) }

// Apply implements Transform: it unrolls the clone and records every
// original gate's per-frame combinational copy (and every primary input's
// per-frame synthetic input) as replicas in sm. Replicas are recorded only
// for non-synthetic originals — synthetic gates contribute no fault sites.
// The Unroller is discarded; constraint.Apply keeps it when the Unroll ends
// the stack.
func (u Unroll) Apply(c *netlist.Netlist, sm *fault.SiteMap) error {
	_, err := NewUnroller(c, sm, u)
	return err
}

// unrollPI is one live primary input of the pre-unroll clone, saved so frames
// appended after the flip-flops are tombstoned can still replicate it.
type unrollPI struct {
	gate      netlist.GateID
	name      string
	out       netlist.NetID
	synthetic bool
}

// unrollFF is the pre-tombstone shape of one flip-flop: everything a frame
// append needs after KillGate has erased the gate's pins.
type unrollFF struct {
	gate netlist.GateID
	name string
	out  netlist.NetID // original Q net, re-driven by the splice buffer
	d    netlist.NetID // original D net (the final frame's next-state)
	rstn netlist.NetID // original RSTN net, InvalidNet for plain KDFF
}

// Unroller is the incremental time-expansion builder behind Unroll: depth is
// a dimension, not a parameter baked in at clone-build time. NewUnroller
// performs the initial k-frame unroll (structurally identical to the one-shot
// Unroll.Apply) and keeps the pre-unroll structure it needs to Extend
// the same clone from k to k+1 frames in place: append one frame's synthetic
// copies just before the final frame, re-splice the state chain onto the new
// frame's next-state nets, and extend the fault.SiteMap replicas. The capture
// probes observe the final frame's next-state nets, which never move, so they
// need no per-depth maintenance.
//
// Extending from k to k+1 yields a clone, capture set and site map equivalent
// (up to gate/net numbering; names and structure match exactly) to a fresh
// (k+1)-frame unroll of the same pre-unroll clone — which is what makes
// verdicts comparable across swept depths — while costing one frame's append
// instead of a from-scratch rebuild.
//
// An Unroller is single-goroutine state; the clone it manages must not be
// mutated by anyone else between Extends.
type Unroller struct {
	c      *netlist.Netlist
	sm     *fault.SiteMap
	frames int
	prefix string

	origOrder []netlist.GateID // pre-unroll levelized comb order (copy source)
	livePIs   []unrollPI
	ties      []netlist.NetID // frame-invariant constant nets
	ffs       []unrollFF

	// state[i] is the net carrying flip-flop i's value entering the final
	// frame — what the splice buffers currently read.
	state   []netlist.NetID
	splices []netlist.GateID

	// frameGates collects the appended combinational gates of every earlier
	// frame in append (= topological) order; tail is the depth-invariant
	// suffix of the annotation order: splices, the final frame's original
	// comb order, then the capture probes.
	frameGates []netlist.GateID
	tail       []netlist.GateID
	annotated  int // frameGates length at the last AnnotationOrder call

	perFrameGates int
	numNets       int // pre-unroll net count (nmap domain)

	nmap []netlist.NetID // pre-unroll net -> its copy in the frame being built
	ins  []netlist.NetID // per-gate input scratch (AddGate copies it)

	// buildDur is the wall-clock cost of the initial NewUnroller unroll —
	// the "rebuild" price an Extend amortizes away; Instrument reports it.
	buildDur time.Duration
	// hExtend, when non-nil, receives each Extend's wall-clock nanoseconds.
	hExtend *obs.Histogram
}

// Instrument attaches a telemetry registry: the initial build cost is
// recorded into the "constraint.unroll.build_ns" histogram immediately (one
// sample per instrumented Unroller — directly comparable to the per-depth
// "constraint.unroll.extend_ns" samples later Extends record, which is the
// incremental-vs-rebuild tradeoff the sweep relies on). Nil disables
// recording. Call once, before Extend.
func (b *Unroller) Instrument(reg *obs.Registry) {
	reg.Histogram("constraint.unroll.build_ns").Observe(b.buildDur.Nanoseconds())
	b.hExtend = reg.Histogram("constraint.unroll.extend_ns")
}

// NewUnroller unrolls the clone to u.Frames frames — producing exactly the
// structure Unroll.Apply pins — and returns the builder that can Extend it.
// Extend keeps appending the new frames' replicas to sm (a nil sm records
// none).
func NewUnroller(c *netlist.Netlist, sm *fault.SiteMap, u Unroll) (*Unroller, error) {
	buildStart := time.Now()
	if u.Frames < 1 {
		return nil, fmt.Errorf("frames must be >= 1, got %d", u.Frames)
	}
	ffGates := c.FlipFlops()
	if len(ffGates) == 0 {
		return nil, fmt.Errorf("netlist %q has no flip-flops to unroll", c.Name)
	}
	// One levelization serves every frame — including frames appended by
	// later Extends: the copies preserve the original gates' topological
	// order, so appendFrame can walk the same order any number of times.
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	b := &Unroller{
		c:         c,
		sm:        sm,
		frames:    u.Frames,
		prefix:    uniquePrefix(c, "uf"),
		origOrder: order,
		numNets:   len(c.Nets),
	}

	// Save the pre-unroll sources: the splice below tombstones the
	// flip-flops, so frames appended by Extend can no longer read their
	// kinds and pins off the gate table.
	for gi := range c.Gates {
		g := c.Gate(netlist.GateID(gi))
		switch g.Kind {
		case netlist.KInput:
			if len(c.Net(g.Out).Fanout) > 0 {
				b.livePIs = append(b.livePIs, unrollPI{
					gate:      netlist.GateID(gi),
					name:      g.Name,
					out:       g.Out,
					synthetic: g.Flags&netlist.FSynthetic != 0,
				})
			}
		case netlist.KTie0, netlist.KTie1:
			b.ties = append(b.ties, g.Out)
		case netlist.KDFF, netlist.KDFFR:
			ff := unrollFF{gate: netlist.GateID(gi), name: g.Name, out: g.Out,
				d: g.Ins[netlist.DffD], rstn: netlist.InvalidNet}
			if g.Kind == netlist.KDFFR {
				ff.rstn = g.Ins[netlist.DffRstN]
			}
			b.ffs = append(b.ffs, ff)
		}
	}

	// The appended volume is known up front: per earlier frame, one
	// synthetic input per live primary input, one copy per non-output gate
	// of the levelized order, and one next-state AND per KDFFR; per
	// flip-flop, one free initial-state input, at most one capture probe
	// and one splice buffer (splices reuse the existing output net).
	// Reserving once avoids the append growth doublings on the gate and net
	// tables.
	combCopies := 0
	for _, gid := range order {
		if c.Gate(gid).Kind != netlist.KOutput {
			combCopies++
		}
	}
	dffrs := 0
	for _, ff := range b.ffs {
		if ff.rstn != netlist.InvalidNet {
			dffrs++
		}
	}
	b.perFrameGates = len(b.livePIs) + combCopies + dffrs
	extraGates := (u.Frames-1)*b.perFrameGates + 3*len(b.ffs)
	c.Reserve(extraGates, extraGates)

	b.state = make([]netlist.NetID, len(b.ffs))
	for i, ff := range b.ffs {
		b.state[i] = c.AddSyntheticInput(fmt.Sprintf("%s_s0_%s", b.prefix, ff.name))
	}

	b.nmap = make([]netlist.NetID, b.numNets)
	for frame := 0; frame < u.Frames-1; frame++ {
		b.appendFrame(frame)
	}

	// Capture probes: the final frame's next-state values ARE observed in
	// mission mode — one cycle later, through any flip-flop whose state
	// reaches a primary output. A synthetic buffer per such flip-flop,
	// flagged FProbe, keeps its D-net addressable as an observation point
	// after the flip-flop itself is tombstoned (ObserveOutputsAndCaptures);
	// without them, output-only observation would wrongly condemn the
	// entire D-cone of the final frame. The probes read the original D
	// nets, which Extend never touches — capture identity across depths is
	// structural, not maintained.
	reaching := outputCone(c)
	var captures []netlist.GateID
	for _, ff := range b.ffs {
		if !reaching[ff.gate] {
			continue
		}
		probe := c.AddSyntheticGate(netlist.KBuf,
			fmt.Sprintf("%s_cap_%s", b.prefix, ff.name), ff.d)
		c.Gates[probe].Flags |= netlist.FProbe
		captures = append(captures, probe)
	}

	// Splice the final frame onto the last computed state: tombstone each
	// flip-flop and re-drive its output net. Extend re-splices by rewiring
	// these buffers' input pins — the buffers themselves are permanent.
	b.splices = make([]netlist.GateID, len(b.ffs))
	for i, ff := range b.ffs {
		c.KillGate(ff.gate)
		sb := c.AddGateOut(netlist.KBuf,
			fmt.Sprintf("%s_splice_%s", b.prefix, ff.name), ff.out, b.state[i])
		c.MarkSynthetic(sb)
		b.splices[i] = sb
	}

	b.tail = append(b.tail, b.splices...)
	b.tail = append(b.tail, order...)
	b.tail = append(b.tail, captures...)
	b.annotated = len(b.frameGates)
	b.buildDur = time.Since(buildStart)
	return b, nil
}

// appendFrame appends one earlier frame's synthetic copies — frame-local
// inputs, combinational copies in the pre-unroll levelized order, and the
// next-state functions — reading the current b.state and leaving the frame's
// next-state in it.
func (b *Unroller) appendFrame(frame int) {
	c := b.c
	for i := range b.nmap {
		b.nmap[i] = netlist.InvalidNet
	}
	// Frame-invariant or frame-local sources.
	for _, pi := range b.livePIs {
		in := c.AddSyntheticInput(fmt.Sprintf("%s_f%d_%s", b.prefix, frame, pi.name))
		b.nmap[pi.out] = in
		if !pi.synthetic {
			b.sm.AddReplica(pi.gate, c.Net(in).Driver)
		}
	}
	for _, t := range b.ties {
		b.nmap[t] = t // constants are frame-invariant
	}
	for i, ff := range b.ffs {
		b.nmap[ff.out] = b.state[i]
	}
	// A net with no live driver reads X in every frame: share it.
	resolve := func(in netlist.NetID) netlist.NetID {
		if b.nmap[in] != netlist.InvalidNet {
			return b.nmap[in]
		}
		return in
	}
	// Combinational copies in levelized order.
	for _, gid := range b.origOrder {
		g := c.Gate(gid)
		if g.Kind == netlist.KOutput {
			continue // earlier frames are not observed
		}
		b.ins = b.ins[:0]
		for _, in := range g.Ins {
			b.ins = append(b.ins, resolve(in))
		}
		ng := c.AddSyntheticGate(g.Kind, fmt.Sprintf("%s_f%d_%s", b.prefix, frame, g.Name), b.ins...)
		b.nmap[g.Out] = c.Gates[ng].Out
		b.frameGates = append(b.frameGates, ng)
		if g.Flags&netlist.FSynthetic == 0 {
			b.sm.AddReplica(gid, ng)
		}
	}
	// Next-state function of this frame feeds the following one.
	for i, ff := range b.ffs {
		d := resolve(ff.d)
		if ff.rstn != netlist.InvalidNet {
			// Synchronous reset-to-0: next = rstn AND d (identical to
			// Mux(rstn, 0, d) in ternary and D-calculus).
			rstn := resolve(ff.rstn)
			ng := c.AddSyntheticGate(netlist.KAnd,
				fmt.Sprintf("%s_f%d_ns_%s", b.prefix, frame, ff.name), rstn, d)
			b.frameGates = append(b.frameGates, ng)
			d = c.Gates[ng].Out
		}
		b.state[i] = d
	}
}

// Frames returns the clone's current total frame count.
func (b *Unroller) Frames() int { return b.frames }

// Extend deepens the unroll from k to k+1 frames in place: it appends one
// more frame — logically the latest earlier frame, reading the state the
// final frame read until now — and re-splices the final frame onto the new
// frame's next-state nets by rewiring the splice buffers' input pins. The
// site map gains the new frame's replicas (appended after the existing ones,
// preserving frame order), and the capture probes stay where they are.
//
// The extended clone is structurally equivalent to a fresh (k+1)-frame
// unroll; Extend itself performs no validation — callers interleaving other
// manipulations should Validate before trusting the clone.
func (b *Unroller) Extend() error {
	start := time.Now()
	frame := b.frames - 1 // the new latest earlier frame
	b.c.Reserve(b.perFrameGates, b.perFrameGates)
	b.appendFrame(frame)
	for i, sp := range b.splices {
		b.c.RewirePin(netlist.Pin{Gate: sp, In: 0}, b.state[i])
	}
	b.frames++
	b.hExtend.ObserveSince(start)
	return nil
}

// AnnotationOrder returns a topological order of the clone's live
// combinational gates — appended frames in frame order, then the splice
// buffers, the final frame's original comb order, and the capture probes —
// plus the index from which forward annotations (levels, controllability)
// must be recomputed: the first gate of the frames appended since the
// previous AnnotationOrder call (or since NewUnroller, for the first call).
// Everything before that index drives nets whose level and controllability
// are unchanged, which is the contract netlist.AnnotateAppended amortizes;
// the returned slice is freshly allocated and safe to retain.
func (b *Unroller) AnnotationOrder() (order []netlist.GateID, stale int) {
	order = make([]netlist.GateID, 0, len(b.frameGates)+len(b.tail))
	order = append(order, b.frameGates...)
	order = append(order, b.tail...)
	stale = b.annotated
	b.annotated = len(b.frameGates)
	return order, stale
}
