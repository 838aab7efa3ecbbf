package sim

import (
	"fmt"
	"math/bits"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Pattern is one combinational input vector, indexed like the slice returned
// by Netlist.PrimaryInputs.
type Pattern []logic.V

// ObsPoint is an observation point: a specific gate input pin whose value is
// compared between good and faulty machines. Using pins rather than nets
// makes faults on the observation pin itself (e.g. a primary-output input
// pin) detectable.
type ObsPoint struct {
	Gate netlist.GateID
	Pin  int32
}

// CombObsPoints returns the standard full-scan observation points of a
// netlist: primary-output input pins and flip-flop data pins.
func CombObsPoints(n *netlist.Netlist) []ObsPoint {
	var pts []ObsPoint
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Kind {
		case netlist.KOutput:
			pts = append(pts, ObsPoint{netlist.GateID(i), 0})
		case netlist.KDFF, netlist.KDFFR:
			pts = append(pts, ObsPoint{netlist.GateID(i), netlist.DffD})
		}
	}
	return pts
}

// OutputObsPoints returns only the primary-output input pins — the
// observation points available to an on-line functional test.
func OutputObsPoints(n *netlist.Netlist) []ObsPoint {
	var pts []ObsPoint
	for i := range n.Gates {
		if n.Gates[i].Kind == netlist.KOutput {
			pts = append(pts, ObsPoint{netlist.GateID(i), 0})
		}
	}
	return pts
}

// ObsVal reads the current value at an observation point, with injections
// applied.
func (s *Simulator) ObsVal(p ObsPoint) logic.PV {
	return s.read(p.Gate, p.Pin, s.N.Gates[p.Gate].Ins[p.Pin])
}

// GradeComb fault-simulates the given faults against the patterns using
// pattern-parallel single-fault propagation (64 patterns per pass) and
// returns the set of detected faults. Detection points are the full-scan
// observation points (primary outputs and flip-flop D pins); flip-flop
// outputs are treated as controllable pseudo-inputs and must be driven by
// the patterns too — pass statePatterns aligned with Netlist.FlipFlops, or
// nil to hold all state at X.
func GradeComb(n *netlist.Netlist, u *fault.Universe, patterns []Pattern,
	statePatterns []Pattern, faults []fault.FID) (*fault.Set, error) {

	gr, err := NewGrader(n, u)
	if err != nil {
		return nil, err
	}
	return gr.Grade(patterns, statePatterns, faults), nil
}

// Stimulus is a cycle-by-cycle input sequence for sequential grading.
type Stimulus struct {
	Inputs []netlist.NetID // nets to drive (normally all primary inputs)
	Cycles [][]logic.V     // Cycles[c][i] drives Inputs[i] in cycle c
}

// check rejects a stimulus the simulator cannot apply to n: an input that is
// not a net of n, a net listed twice, or a cycle that does not drive exactly
// the listed inputs.
func (st Stimulus) check(n *netlist.Netlist) error {
	listed := make([]bool, len(n.Nets))
	for i, net := range st.Inputs {
		if net < 0 || int(net) >= len(n.Nets) {
			return fmt.Errorf("stimulus input %d is net %d, netlist %q has %d nets", i, net, n.Name, len(n.Nets))
		}
		if listed[net] {
			return fmt.Errorf("stimulus input %d lists net %q again", i, n.Nets[net].Name)
		}
		listed[net] = true
	}
	for c, cyc := range st.Cycles {
		if len(cyc) != len(st.Inputs) {
			return fmt.Errorf("stimulus cycle %d drives %d values, want one per input (%d)", c, len(cyc), len(st.Inputs))
		}
	}
	return nil
}

// GradeSeq fault-simulates the given faults against a sequential stimulus,
// fault-parallel: 63 faulty machines share each simulation pass with one
// good reference machine in slot 63. A fault is detected in the cycle where
// an observed net carries a known value differing from the good machine's
// known value. Outputs are sampled after combinational settling, before the
// clock edge, every cycle.
//
// Each fault is expanded through the site map before injection: a fault's
// lane carries the joint multi-site faulty machine (every replica site stuck
// at once), which is how a permanent defect on a time-expanded clone is
// graded. A nil map grades classical single-site faults. reg receives the
// counters below; nil disables recording. GradeSeq returns an error, before
// simulating anything, for a stimulus whose inputs are not distinct nets of
// n or whose cycles do not drive exactly its inputs.
//
// Grading follows PROOFS (Niermann, Cheng & Patel, IEEE TCAD 1992) in four
// steps, none of which changes which faults are detected:
//
//   - Screen. A fault none of whose sites lies in the fan-in cone of an
//     observation pin (netlist.FaninCone, through gates and flip-flops)
//     cannot make an observed value differ in any cycle, so it is not
//     simulated.
//   - Drop. Every word advances cycle by cycle on one Simulator, and a fault
//     leaves its word in the cycle it is detected. Grading stops early once
//     every fault is detected.
//   - Regroup. Whenever the survivors fit in fewer words, they are packed
//     into ceil(live/63) words. Each lane's source-net values (flip-flop
//     outputs, inputs, ties) move with it. Every other net is recomputed
//     from the sources each cycle, so a word's state between cycles is just
//     those values plus its injections.
//   - Prove. Once the survivors first fit one word, each single-site fault
//     among them that is not on a flip-flop or an observation pin gets one
//     local proof (see prover): if the fault's effect dies at a fanout-free
//     dominator under every assignment of the dominator's local support,
//     with ties and the inputs the stimulus holds at one known value in
//     every cycle as constants, no cycle can detect it, and it leaves its
//     word as a detected fault does, undetected. Grading stops at once when
//     no fault is left.
//
// Counters:
//
//	sim.gradeseq.unobservable faults the screen skipped
//	sim.gradeseq.lanes        faults simulated, one lane each
//	sim.gradeseq.words        words the simulated faults were first packed
//	                          into, 63 lanes to a word
//	sim.gradeseq.cycles       word-cycles simulated; shrinks as faults drop
//	sim.gradeseq.regroups     times the survivors were packed into fewer words
//	sim.gradeseq.proved       faults the proof showed undetectable
func GradeSeq(n *netlist.Netlist, u *fault.Universe, stim Stimulus,
	observe []ObsPoint, faults []fault.FID, sm *fault.SiteMap, reg *obs.Registry) (*fault.Set, error) {

	if err := stim.check(n); err != nil {
		return nil, err
	}
	detected := fault.NewSet(u)
	if len(faults) == 0 {
		return detected, nil
	}
	s, err := New(n)
	if err != nil {
		return nil, err
	}
	graded := observableFaults(u, observe, faults, sm)
	reg.Counter("sim.gradeseq.unobservable").Add(int64(len(faults) - len(graded)))
	reg.Counter("sim.gradeseq.lanes").Add(int64(len(graded)))
	if len(graded) == 0 {
		return detected, nil
	}
	ws := newSeqWords(s, u, sm, graded)
	reg.Counter("sim.gradeseq.words").Add(int64(ws.num))
	mCycles := reg.Counter("sim.gradeseq.cycles")
	mRegroups := reg.Counter("sim.gradeseq.regroups")
	mProved := reg.Counter("sim.gradeseq.proved")
	obsNets := make([]netlist.NetID, len(observe))
	for i, p := range observe {
		obsNets[i] = n.Gates[p.Gate].Ins[p.Pin]
	}
	prove := func() { mProved.Add(int64(ws.prove(newProver(s, stim, observe)))) }
	if ws.num == 1 {
		prove()
	}

	for _, cyc := range stim.Cycles {
		if ws.alive == 0 {
			break
		}
		mCycles.Add(int64(ws.num))
		for w := 0; w < ws.num; w++ {
			ws.load(w)
			for i, net := range stim.Inputs {
				s.SetInputV(net, cyc[i])
			}
			s.EvalComb()
			caught := observedDiff(s, observe, obsNets) & ws.live[w]
			s.CommitState()
			ws.save(w)
			ws.drop(w, caught, detected)
		}
		if ws.alive > 0 && words(ws.alive) < ws.num {
			ws.regroup()
			mRegroups.Inc()
			if ws.num == 1 {
				prove()
			}
		}
	}
	return detected, nil
}

// observableFaults returns, in order, the faults with at least one site —
// primary or replica — in the sequential fan-in cone of an observation pin
// (obsReach). A fault on an input pin is in the cone when its gate is, or
// when the pin is itself an observation point.
func observableFaults(u *fault.Universe, observe []ObsPoint, faults []fault.FID, sm *fault.SiteMap) []fault.FID {
	reach := newObsReach(u.N, observe, true)
	var out []fault.FID
	for _, fid := range faults {
		if reach.fault(u.FaultOf(fid), sm) {
			out = append(out, fid)
		}
	}
	return out
}

// Every word carries faultLanes faulty machines in lanes 0..faultLanes-1 and
// the good machine in goodSlot, the last lane.
const (
	faultLanes = logic.WordBits - 1
	goodSlot   = faultLanes
)

// observedDiff returns the lanes whose value at some observation point is
// known and differs from the good machine's known value. nets[i] is the net
// observe[i] reads. The good lane's two rail bits pick the faulty rail by
// mask arithmetic, not by a branch on the value: a good 1 reports the lanes
// at 0, a good 0 the lanes at 1, and a good X neither. goodSlot is the top
// lane, so shifting a rail down by it leaves just the good lane's bit, and
// negating that bit spreads it over the word.
func observedDiff(s *Simulator, observe []ObsPoint, nets []netlist.NetID) uint64 {
	var diff uint64
	for i, p := range observe {
		v := s.read(p.Gate, p.Pin, nets[i])
		diff |= v.L0&-(v.L1>>goodSlot) | v.L1&-(v.L0>>goodSlot)
	}
	return diff
}

// seqWords holds the faulty machines of one sequential grading run between
// cycles: lane l of word w grades fids[w*faultLanes+l], and the word keeps its
// source-net values and its injections. The simulator holds one word at a
// time.
type seqWords struct {
	s     *Simulator
	u     *fault.Universe
	sm    *fault.SiteMap
	fids  []fault.FID
	num   int           // words in use
	cur   int           // word installed in the simulator, or -1
	alive int           // lanes not yet detected, over all words
	live  []uint64      // per word: lanes not yet detected
	inj   [][]Injection // per word: the injections of its lanes
	state []logic.PV    // per word: len(s.srcNets) source-net values
}

func newSeqWords(s *Simulator, u *fault.Universe, sm *fault.SiteMap, fids []fault.FID) *seqWords {
	num := words(len(fids))
	ws := &seqWords{
		s: s, u: u, sm: sm, fids: fids,
		live: make([]uint64, num),
		inj:  make([][]Injection, num),
		// The zero PV is X in every slot: the state every machine starts in.
		state: make([]logic.PV, num*len(s.srcNets)),
	}
	ws.pack(len(fids))
	return ws
}

// words returns how many words it takes to hold the given number of faulty
// machines.
func words(lanes int) int { return (lanes + faultLanes - 1) / faultLanes }

// pack makes the first lanes entries of fids the live lanes of the first
// words(lanes) words and rebuilds those words' injections.
func (ws *seqWords) pack(lanes int) {
	ws.fids = ws.fids[:lanes]
	ws.num = words(lanes)
	ws.cur = -1
	ws.alive = lanes
	for w := 0; w < ws.num; w++ {
		lo := w * faultLanes
		hi := min(lo+faultLanes, lanes)
		ws.live[w] = 1<<uint(hi-lo) - 1
		inj := ws.inj[w][:0]
		for l, fid := range ws.fids[lo:hi] {
			f := ws.u.FaultOf(fid)
			mask := uint64(1) << uint(l)
			inj = append(inj, Injection{Site: f.Site, SA: f.SA, Mask: mask})
			for _, rep := range ws.sm.Replicas(f.Gate) {
				inj = append(inj, Injection{Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: mask})
			}
		}
		ws.inj[w] = inj
	}
}

// sources returns word w's source-net values.
func (ws *seqWords) sources(w int) []logic.PV {
	k := len(ws.s.srcNets)
	return ws.state[w*k : (w+1)*k]
}

// load installs word w in the simulator: its injections and its source-net
// values. A lone word stays installed from cycle to cycle.
func (ws *seqWords) load(w int) {
	if ws.cur == w {
		return
	}
	ws.cur = w
	s := ws.s
	s.ClearInjections()
	for _, in := range ws.inj[w] {
		s.AddInjection(in)
	}
	for i, v := range ws.sources(w) {
		s.vals[s.srcNets[i]] = v
	}
}

// save stores the simulator's source-net values as word w's. A lone word
// needs no copy: it stays installed, and regrouping needs two words.
func (ws *seqWords) save(w int) {
	if ws.num == 1 {
		return
	}
	s := ws.s
	st := ws.sources(w)
	for i, net := range s.srcNets {
		st[i] = s.vals[net]
	}
}

// drop records the caught lanes of word w as detected and retires them.
func (ws *seqWords) drop(w int, caught uint64, detected *fault.Set) {
	for c := caught; c != 0; c &= c - 1 {
		detected.Add(ws.fids[w*faultLanes+bits.TrailingZeros64(c)])
	}
	ws.retire(w, caught)
}

// retire removes the given lanes of word w from its live lanes.
func (ws *seqWords) retire(w int, lanes uint64) {
	ws.live[w] &^= lanes
	ws.alive -= bits.OnesCount64(lanes)
}

// prove retires every live lane of the lone word whose fault p shows
// undetectable, and returns how many it retired. A fault with replica sites
// is not tried. The proof overwrites simulator values and injections, so the
// next load reinstalls the word.
func (ws *seqWords) prove(p *prover) int {
	ws.cur = -1
	var proved uint64
	for l := ws.live[0]; l != 0; l &= l - 1 {
		lane := bits.TrailingZeros64(l)
		f := ws.u.FaultOf(ws.fids[lane])
		if len(ws.sm.Replicas(f.Gate)) == 0 && p.proves(f) {
			proved |= 1 << uint(lane)
		}
	}
	ws.retire(0, proved)
	return bits.OnesCount64(proved)
}

// regroup packs the surviving lanes, in order, into the first
// words(ws.alive) words. Each source word's survivors move at once (see
// moveWord). A lane only ever moves to a lower position w*faultLanes+l, so
// packing in place never overwrites a lane still to be moved. The good slot
// needs no move: every word runs the same good machine.
func (ws *seqWords) regroup() {
	k := 0
	for w := 0; w < ws.num; w++ {
		live := ws.live[w]
		// A word that starts at position k with its survivors in its lowest
		// lanes is already in place.
		if live != 0 && (k != w*faultLanes || live&(live+1) != 0) {
			for l, i := live, k; l != 0; l, i = l&(l-1), i+1 {
				ws.fids[i] = ws.fids[w*faultLanes+bits.TrailingZeros64(l)]
			}
			ws.moveWord(w, live, k)
		}
		k += bits.OnesCount64(live)
	}
	ws.pack(k)
}

// moveWord moves the live lanes of word w, in order, to positions k, k+1, ...
// For every source net it compresses the live lanes' bits of each rail to
// the bottom of the word, then shifts them into the destination word from
// lane k%faultLanes, spilling into the next word. The compress is the
// parallel-suffix one of Warren's Hacker's Delight (section 7-4), with its
// six move masks computed once for the word. Lanes outside the moved ones,
// the good slot among them, are not written.
func (ws *seqWords) moveWord(w int, live uint64, k int) {
	var mv [6]uint64
	m, mk := live, ^live<<1
	for i := range mv {
		mp := mk ^ mk<<1
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv[i] = mp & m
		m = m ^ mv[i] | mv[i]>>(1<<i)
		mk &^= mp
	}
	compress := func(x uint64) uint64 {
		x &= live
		for i, v := range mv {
			t := x & v
			x = x ^ t | t>>(1<<i)
		}
		return x
	}

	n := bits.OnesCount64(live)
	dw, dl := k/faultLanes, k%faultLanes
	here := min(n, faultLanes-dl) // lanes that land in word dw
	in := (uint64(1)<<here - 1) << dl
	dst, src := ws.sources(dw), ws.sources(w)
	var spill []logic.PV
	if here < n {
		spill = ws.sources(dw + 1)
	}
	over := uint64(1)<<(n-here) - 1
	for i, v := range src {
		l0, l1 := compress(v.L0), compress(v.L1)
		dst[i].L0 = dst[i].L0&^in | l0<<dl&in
		dst[i].L1 = dst[i].L1&^in | l1<<dl&in
		if spill != nil {
			spill[i].L0 = spill[i].L0&^over | l0>>here
			spill[i].L1 = spill[i].L1&^over | l1>>here
		}
	}
}
