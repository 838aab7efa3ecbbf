package sim

import (
	"math/bits"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Grader is a reusable PPSFP combinational fault-grading engine. It keeps one
// simulator plus all per-batch and per-fault scratch allocated across calls,
// so tight generate-then-drop loops (the ATPG fleet driver) neither rebuild
// levelized state nor churn the allocator per pattern.
//
// Per 64-pattern word the good machine is settled once by a full pass of the
// op program. A definite-net screen then picks the candidates: a gate whose
// inputs are all X outputs X, so a fault can differ from the good machine
// only if some site of it sits on a net with a definite good value opposite
// its stuck value. One scan of the net values walks a per-net index of the
// universe's sites and keeps the listed, not yet detected faults it meets.
// Each candidate then re-evaluates only the ops reachable from its injection
// sites, in order position, recording changed nets in an undo log that is
// rolled back before the next candidate. The pending ops are one bit per op
// position, scanned upward between the lowest and highest word that holds
// one (see schedule). Values are identical to a full
// faulty-machine pass — a gate's output can differ from the good machine
// only if an input net differs or the gate itself carries an injection, and
// both cases are seeded or scheduled (see TestGraderMatchesFullEvalReference).
// Each changed net is final when it is written, so the observation points
// that read it are compared right then, and the evaluation stops at the
// first one that differs: the rest of the cone cannot undo a detection.
// A Grader is not safe for concurrent use.
type Grader struct {
	n     *netlist.Netlist
	u     *fault.Universe
	sm    *fault.SiteMap
	good  *Simulator
	graph *netlist.Graph
	pis   []netlist.GateID
	ffs   []netlist.GateID
	obs   []ObsPoint

	// Per-batch input-packing scratch.
	piVals []logic.PV
	ffVals []logic.PV

	// Definite-net screen. siteStart/siteIdx is a CSR over nets listing
	// every universe site i with a site of its fault pair (2i s-a-0, 2i+1
	// s-a-1), primary or replica, on the net. mark[fid] == stamp marks a
	// listed, not yet detected fault of the current word.
	siteStart []int32
	siteIdx   []int32
	mark      []uint32
	stamp     uint32
	cands     []fault.FID

	// Per-fault event-driven scratch. pending holds one bit per op
	// position; only its words [lo, hi) can hold a set bit. epoch stamps
	// replace clearing: a chStamp entry is valid only when it equals the
	// current epoch.
	pending  []uint64
	lo, hi   int
	epoch    uint64
	chStamp  []uint64 // per net: epoch when changed
	chIdx    []int32  // per net: undo-log index when changed
	undoNets []netlist.NetID
	undoVals []logic.PV

	// Test store (AddTest, Detects): the stored tests packed
	// logic.WordBits to a word, lane i of word w holding test
	// w*logic.WordBits+i. words[w] is word w's settled good machine, one
	// value per net; buffers past the open words are kept for reuse.
	words  [][]logic.PV
	ntests int

	// Observation points indexed two ways: by the net their pin reads (a
	// changed net can flip them) and by their gate (a pin injection on the
	// obs gate can flip them with no net change). obsNet[i] is the net
	// point i reads.
	obsNet       []netlist.NetID
	obsNetStart  []int32
	obsNetIdx    []int32
	obsGateStart []int32
	obsGateIdx   []int32

	// Telemetry handles, armed by Instrument; nil handles no-op, so an
	// uninstrumented grader pays one branch per record.
	mPatterns   *obs.Counter
	mWords      *obs.Counter
	mFaultEvals *obs.Counter
	mScreened   *obs.Counter
}

// Instrument attaches a telemetry registry. Counters:
//
//	sim.grade.patterns    patterns graded by GradeInto plus tests stored by
//	                      AddTest
//	sim.grade.words       good-machine settles of a 64-wide word: one per
//	                      GradeInto batch and one per AddTest
//	sim.grade.fault_evals faulty-machine cone evaluations actually run, by
//	                      GradeInto and by Detects (one per word it grades)
//	sim.grade.screened    per-word fault gradings skipped by the activation
//	                      screen (no lane controls any site to the opposite
//	                      of its stuck value, so no detection is possible)
//
// A nil registry resolves nil handles and recording stays a no-op.
func (gr *Grader) Instrument(reg *obs.Registry) {
	gr.mPatterns = reg.Counter("sim.grade.patterns")
	gr.mWords = reg.Counter("sim.grade.words")
	gr.mFaultEvals = reg.Counter("sim.grade.fault_evals")
	gr.mScreened = reg.Counter("sim.grade.screened")
}

// NewGrader builds a grader for the netlist. Detection points are the
// full-scan observation points (primary outputs and flip-flop D pins).
func NewGrader(n *netlist.Netlist, u *fault.Universe) (*Grader, error) {
	return NewGraderSites(n, u, nil, nil)
}

// NewGraderSites builds a grader detecting only at the given observation
// points; nil means the full-scan set (CombObsPoints). Restricted graders are
// what keeps fault dropping sound when ATPG itself runs with restricted
// observability: a pattern may only drop a fault if the difference shows at a
// point the scenario actually observes. The grader expands each graded fault
// through the site map before injection: every site of the joint injection is
// stuck simultaneously in the faulty machine. A nil map is classical
// single-site grading. Graders used to drop faults for a multi-site ATPG run
// must share the run's site map for the same reason they share its
// observation points: detection claims on differently injected machines do
// not transfer.
func NewGraderSites(n *netlist.Netlist, u *fault.Universe, obsPts []ObsPoint, sm *fault.SiteMap) (*Grader, error) {
	good, err := New(n)
	if err != nil {
		return nil, err
	}
	if obsPts == nil {
		obsPts = CombObsPoints(n)
	}
	gr := &Grader{
		n:     n,
		u:     u,
		sm:    sm,
		good:  good,
		graph: good.Graph(),
		obs:   obsPts,
		mark:  make([]uint32, u.NumFaults()),
	}
	gr.sync()
	return gr, nil
}

// Extend re-synchronizes the grader with a netlist that grew by appended
// gates and nets since construction (constraint.Unroller.Extend): the shared
// graph and good machine extend in place from the supplied topological order
// (netlist.Graph.Extend documents the order contract) and recompile, and the
// grader's own tables are re-read — input and flip-flop lists, the pending
// bitset (resized and emptied, since op positions move) and per-net scratch
// (zero epoch stamps are always stale, so appended entries need no
// initialization), the observation CSRs, and the screen's site
// index, which must follow both re-spliced pins and the replicas the site
// map gained. The observation points themselves, the universe and the site
// map are the ones supplied at construction: the unroll extension contract
// keeps all three valid (capture probes never move, appended gates are
// site-free, replica growth is visible through the shared SiteMap). This is
// what lets a depth sweep keep one warm grader instead of rebuilding the
// full CSR and simulator per depth. The test store is emptied: its words
// were settled on the smaller netlist. Its buffers are kept and regrow to
// the new net count as words reopen.
func (gr *Grader) Extend(order []netlist.GateID) error {
	if err := gr.good.Extend(order); err != nil {
		return err
	}
	gr.sync()
	return nil
}

// sync sizes and rebuilds every table derived from the netlist, the graph's
// order and the site map.
func (gr *Grader) sync() {
	n := gr.n
	gr.pis = n.PrimaryInputs()
	gr.ffs = n.FlipFlops()
	gr.piVals = resize(gr.piVals, len(gr.pis))
	gr.ffVals = resize(gr.ffVals, len(gr.ffs))
	gr.pending = resize(gr.pending, (len(gr.good.ops)+63)/64)
	clear(gr.pending)
	gr.lo, gr.hi = len(gr.pending), 0
	gr.chStamp = resize(gr.chStamp, len(n.Nets))
	gr.chIdx = resize(gr.chIdx, len(n.Nets))
	gr.obsNet = resize(gr.obsNet, len(gr.obs))
	for i, p := range gr.obs {
		gr.obsNet[i] = n.Gates[p.Gate].Ins[p.Pin]
	}
	gr.obsNetStart, gr.obsNetIdx = buildObsCSR(len(n.Nets), gr.obs, func(i int, _ ObsPoint) int32 {
		return int32(gr.obsNet[i])
	})
	gr.obsGateStart, gr.obsGateIdx = buildObsCSR(len(n.Gates), gr.obs, func(_ int, p ObsPoint) int32 {
		return int32(p.Gate)
	})
	gr.buildSiteIndex()
	gr.ResetTests()
}

// buildSiteIndex rebuilds the screen's net-to-site CSR at its exact size:
// one pass counts the sites per net, a second fills them. Counting into
// siteStart[net+2] and filling through siteStart[net+1] as the cursor leaves
// siteStart[net] at each net's first entry without a separate cursor array.
func (gr *Grader) buildSiteIndex() {
	nets := len(gr.n.Nets)
	start := resize(gr.siteStart, nets+2)
	clear(start)
	gr.forEachSiteNet(func(net netlist.NetID, _ int32) { start[net+2]++ })
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx := resize(gr.siteIdx, int(start[nets+1]))
	gr.forEachSiteNet(func(net netlist.NetID, site int32) {
		idx[start[net+1]] = site
		start[net+1]++
	})
	gr.siteStart, gr.siteIdx = start[:nets+1], idx
}

// forEachSiteNet calls fn with the net of every site of every universe
// fault pair — the universe site itself and the same pin on each of its
// gate's replicas — skipping sites the netlist no longer has (pins of a
// tombstoned gate).
func (gr *Grader) forEachSiteNet(fn func(net netlist.NetID, site int32)) {
	for i := 0; i < gr.u.NumSites(); i++ {
		s := gr.u.Site(i)
		if net, ok := gr.siteNet(s.Gate, s.Pin); ok {
			fn(net, int32(i))
		}
		for _, rep := range gr.sm.Replicas(s.Gate) {
			if net, ok := gr.siteNet(rep, s.Pin); ok {
				fn(net, int32(i))
			}
		}
	}
}

// siteNet returns the net pin pin (or fault.OutputPin) of gate g sits on,
// and false when the netlist no longer has the pin (a tombstoned gate).
func (gr *Grader) siteNet(g netlist.GateID, pin int32) (netlist.NetID, bool) {
	gate := &gr.n.Gates[g]
	switch {
	case pin == fault.OutputPin && gate.Out != netlist.InvalidNet:
		return gate.Out, true
	case pin >= 0 && int(pin) < len(gate.Ins):
		return gate.Ins[pin], true
	}
	return netlist.InvalidNet, false
}

// buildObsCSR groups observation-point indices by an int32 key (net or gate).
func buildObsCSR(keys int, obsPts []ObsPoint, keyOf func(int, ObsPoint) int32) (start, idx []int32) {
	start = make([]int32, keys+1)
	for i, p := range obsPts {
		start[keyOf(i, p)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx = make([]int32, len(obsPts))
	fill := make([]int32, keys)
	copy(fill, start[:keys])
	for i, p := range obsPts {
		k := keyOf(i, p)
		idx[fill[k]] = int32(i)
		fill[k]++
	}
	return start, idx
}

// Grade fault-simulates the given faults against the pattern set,
// pattern-parallel (64 patterns per pass), and returns the set of detected
// faults. statePatterns drives flip-flop outputs as pseudo-inputs (aligned
// with Netlist.FlipFlops); nil holds all state at X. It is GradeInto on a
// fresh set.
func (gr *Grader) Grade(patterns, statePatterns []Pattern, faults []fault.FID) *fault.Set {
	detected := fault.NewSet(gr.u)
	gr.GradeInto(detected, patterns, statePatterns, faults)
	return detected
}

// GradeInto is Grade adding the detected faults to dst, a set over the
// grader's universe, instead of a fresh set. Faults already in dst count as
// detected: they are neither screened nor simulated. A fault listed twice is
// graded once. Once its scratch has grown to the largest call, GradeInto
// does not allocate.
func (gr *Grader) GradeInto(dst *fault.Set, patterns, statePatterns []Pattern, faults []fault.FID) {
	for base := 0; base < len(patterns); base += logic.WordBits {
		hi := base + logic.WordBits
		if hi > len(patterns) {
			hi = len(patterns)
		}
		gr.gradeBatch(patterns[base:hi], sliceOrNil(statePatterns, base, hi), faults, dst)
	}
}

func sliceOrNil(ps []Pattern, lo, hi int) []Pattern {
	if ps == nil {
		return nil
	}
	return ps[lo:hi]
}

// gradeBatch grades one word-sized batch of patterns, adding detections to
// detected and skipping faults already there.
func (gr *Grader) gradeBatch(patterns, statePatterns []Pattern, faults []fault.FID, detected *fault.Set) {
	gr.mPatterns.Add(int64(len(patterns)))
	gr.mWords.Inc()
	for pi := range gr.pis {
		v := logic.PVAllX
		for k := range patterns {
			v = v.Set(k, patterns[k][pi])
		}
		gr.piVals[pi] = v
	}
	for fi := range gr.ffs {
		v := logic.PVAllX
		if statePatterns != nil {
			for k := range statePatterns {
				v = v.Set(k, statePatterns[k][fi])
			}
		}
		gr.ffVals[fi] = v
	}
	// Settle the good machine once; every fault below perturbs it in place
	// and rolls back.
	s := gr.good
	s.ClearState(logic.X)
	for pi, g := range gr.pis {
		s.SetInput(gr.n.Gates[g].Out, gr.piVals[pi])
	}
	for fi, g := range gr.ffs {
		s.SetInput(gr.n.Gates[g].Out, gr.ffVals[fi])
	}
	s.EvalComb()

	for _, fid := range gr.candidates(faults, detected) {
		if gr.detect(gr.u.FaultOf(fid), ^uint64(0)) {
			detected.Add(fid)
		}
	}
}

// detect injects f's whole site set — its site plus every replica — in the
// lanes of mask on top of the settled good machine, reports whether an
// observation point differs, and rolls the machine back. It builds no
// Injection slice: it runs per candidate per word, so the single-site path
// must stay allocation-free.
func (gr *Grader) detect(f fault.Fault, mask uint64) bool {
	s := gr.good
	s.AddInjection(Injection{Site: f.Site, SA: f.SA, Mask: mask})
	for _, rep := range gr.sm.Replicas(f.Gate) {
		s.AddInjection(Injection{Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: mask})
	}
	gr.mFaultEvals.Inc()
	hit := gr.evalConeDetect()
	for i, net := range gr.undoNets {
		s.vals[net] = gr.undoVals[i]
	}
	s.ClearInjections()
	return hit
}

// ResetTests empties the test store. Its word buffers are kept, so a run
// that stores as many tests as an earlier one allocates nothing.
func (gr *Grader) ResetTests() { gr.ntests = 0 }

// Tests returns the number of tests in the store: the next AddTest stores
// test number Tests().
func (gr *Grader) Tests() int { return gr.ntests }

// AddTest stores one test: pattern drives the primary inputs and state the
// flip-flop outputs (nil holds them at X), as one row of Grade does. The
// test takes the next lane of the open word, or opens a word at all-X.
// AddTest sets only that lane's input bits and settles the word's good
// machine with one pass of the op program; every other lane keeps its
// values, because each lane is evaluated on its own.
func (gr *Grader) AddTest(pattern, state Pattern) {
	w, lane := gr.ntests/logic.WordBits, gr.ntests%logic.WordBits
	nets := len(gr.n.Nets)
	if w == len(gr.words) {
		gr.words = append(gr.words, nil)
	}
	if lane == 0 {
		gr.words[w] = resize(gr.words[w], nets)
		clear(gr.words[w]) // the zero PV is X in every lane
	}
	vals := gr.words[w]
	for i, g := range gr.pis {
		out := gr.n.Gates[g].Out
		vals[out] = vals[out].Set(lane, pattern[i])
	}
	if state != nil {
		for i, g := range gr.ffs {
			out := gr.n.Gates[g].Out
			vals[out] = vals[out].Set(lane, state[i])
		}
	}
	s := gr.good
	own := s.vals
	s.vals = vals
	s.EvalComb()
	s.vals = own
	gr.ntests++
	gr.mPatterns.Inc()
	gr.mWords.Inc()
}

// Detects reports whether a stored test numbered k or higher (k ≥ 0)
// detects fault fid: it answers Grade(tests[k:], ...).Has(fid) for the
// stored tests without settling a word again. Each word holding such a test
// costs one activation read and at most one cone evaluation. The read takes
// the lanes from k on in which some site of fid, primary or replica, has
// the definite opposite of the stuck value on its net; the cone evaluation
// injects every site in those lanes only. A lane that activates no site
// cannot detect (see candidates), so masking it out changes no answer.
// Detects stops at the first word that detects.
func (gr *Grader) Detects(fid fault.FID, k int) bool {
	f := gr.u.FaultOf(fid)
	s := gr.good
	own := s.vals
	hit := false
	for w := k / logic.WordBits; !hit && w*logic.WordBits < gr.ntests; w++ {
		lanes := ^uint64(0)
		if lo := k - w*logic.WordBits; lo > 0 {
			lanes <<= uint(lo)
		}
		if hi := gr.ntests - w*logic.WordBits; hi < logic.WordBits {
			lanes &= 1<<uint(hi) - 1
		}
		vals := gr.words[w]
		act := gr.activation(vals, f) & lanes
		if act == 0 {
			gr.mScreened.Inc()
			continue
		}
		s.vals = vals
		hit = gr.detect(f, act)
		s.vals = own
	}
	return hit
}

// activation returns the lanes of the settled word vals in which some site
// of f, its own or a replica, carries the definite opposite of f's stuck
// value.
func (gr *Grader) activation(vals []logic.PV, f fault.Fault) uint64 {
	lanes := func(g netlist.GateID) uint64 {
		net, ok := gr.siteNet(g, f.Pin)
		switch {
		case !ok:
			return 0
		case f.SA == logic.Zero:
			return vals[net].L1
		}
		return vals[net].L0
	}
	act := lanes(f.Gate)
	for _, rep := range gr.sm.Replicas(f.Gate) {
		act |= lanes(rep)
	}
	return act
}

// candidates returns the listed faults, not yet in detected, that the
// settled good machine can activate: some lane drives some site of the
// fault to the definite opposite of its stuck value. In every other lane the
// injection replaces v or X with v — an information-order refinement — and
// every gate function is monotone in Kleene logic, so the faulty machine
// refines the good one net by net and Diff (which needs definite values on
// both sides) can never fire at an observation point. The rest of the listed
// faults count as screened.
//
// A site's good value is its net's value (injections exist only in the
// faulty machine), and only a net with a definite lane can activate
// anything, so one scan of the net values visits the definite nets and
// walks their sites: a 1 lane activates the site's stuck-at-0 fault, a 0
// lane its stuck-at-1 fault. A mark per fault admits each listed fault once.
func (gr *Grader) candidates(faults []fault.FID, detected *fault.Set) []fault.FID {
	gr.stamp++
	if gr.stamp == 0 {
		clear(gr.mark)
		gr.stamp = 1
	}
	st := gr.stamp
	listed := 0
	for _, fid := range faults {
		if gr.mark[fid] != st && !detected.Has(fid) {
			gr.mark[fid] = st
			listed++
		}
	}
	cands := gr.cands[:0]
	s := gr.good
	for net, v := range s.vals {
		if v.L0|v.L1 == 0 {
			continue
		}
		for _, site := range gr.siteIdx[gr.siteStart[net]:gr.siteStart[net+1]] {
			if sa0 := fault.FID(2 * site); v.L1 != 0 && gr.mark[sa0] == st {
				gr.mark[sa0] = 0
				cands = append(cands, sa0)
			}
			if sa1 := fault.FID(2*site + 1); v.L0 != 0 && gr.mark[sa1] == st {
				gr.mark[sa1] = 0
				cands = append(cands, sa1)
			}
		}
	}
	gr.cands = cands
	gr.mScreened.Add(int64(listed - len(cands)))
	return cands
}

// evalConeDetect re-settles only the injection sites' output cone on top of
// the good values, logging every changed net, and reports whether any
// observation point differs from the good machine. It stops at the first
// difference: logWrite compares each changed net's observation points as it
// logs the net, and a net is final once written, because source sites are
// written before any op runs and ops drain in order position. The next call
// clears the pending bits between lo and hi, which is all an early return
// can leave behind.
func (gr *Grader) evalConeDetect() bool {
	s := gr.good
	gr.epoch++
	ep := gr.epoch
	if gr.lo < gr.hi {
		clear(gr.pending[gr.lo:gr.hi])
	}
	gr.lo, gr.hi = len(gr.pending), 0
	gr.undoNets = gr.undoNets[:0]
	gr.undoVals = gr.undoVals[:0]

	// Seed from the injection sites. Source gates have no combinational
	// inputs, only a held output the injection may override, so they are
	// re-evaluated immediately. Everything else is scheduled.
	for _, g := range s.injSrcs {
		out := s.N.Gates[g].Out
		old := s.vals[out]
		s.vals[out] = s.sourceVal(g, out)
		if gr.logWrite(out, old, ep) {
			return true
		}
	}
	for _, g := range s.injGates {
		if pos := gr.graph.Pos(g); pos >= 0 {
			gr.schedule(pos)
		}
	}
	// Drain in op order, so each gate is evaluated at most once with all of
	// its faulty input values already settled. An op schedules only its
	// consumers, which come later in the order, so the scan never has to
	// look back: hi may grow while it runs, lo cannot drop below w.
	for w := gr.lo; w < gr.hi; w++ {
		for gr.pending[w] != 0 {
			word := gr.pending[w]
			gr.pending[w] = word & (word - 1)
			pos := w<<6 | bits.TrailingZeros64(word)
			out := s.ops[pos].out
			if out == netlist.InvalidNet {
				continue // KOutput marker: nothing to compute
			}
			old := s.vals[out]
			s.run(s.ops[pos : pos+1])
			if gr.logWrite(out, old, ep) {
				return true
			}
		}
	}

	// No changed net flipped an observation point. The one other way to
	// flip one is a pin injection on its own gate, which alters the read
	// with no net change.
	for _, g := range s.injGates {
		for _, oi := range gr.obsGateIdx[gr.obsGateStart[g]:gr.obsGateStart[g+1]] {
			p := gr.obs[oi]
			net := gr.obsNet[oi]
			good := s.vals[net]
			if gr.chStamp[net] == ep {
				good = gr.undoVals[gr.chIdx[net]]
			}
			if good.Diff(s.read(p.Gate, p.Pin, net)) != 0 {
				return true
			}
		}
	}
	return false
}

// logWrite records a recomputed net value: if it changed from old, the old
// value goes to the undo log, and logWrite reports whether an observation
// point reading the net sees it differ from old. If none does, every
// consumer is scheduled. Each net has one driver and each gate evaluates at
// most once per fault, so a net is logged at most once, with its final
// faulty value.
func (gr *Grader) logWrite(net netlist.NetID, old logic.PV, ep uint64) bool {
	s := gr.good
	if s.vals[net] == old {
		return false
	}
	gr.chStamp[net] = ep
	gr.chIdx[net] = int32(len(gr.undoNets))
	gr.undoNets = append(gr.undoNets, net)
	gr.undoVals = append(gr.undoVals, old)
	for _, oi := range gr.obsNetIdx[gr.obsNetStart[net]:gr.obsNetStart[net+1]] {
		if p := gr.obs[oi]; old.Diff(s.read(p.Gate, p.Pin, net)) != 0 {
			return true
		}
	}
	for _, c := range gr.graph.Consumers(net) {
		if pos := gr.graph.Pos(c); pos >= 0 {
			gr.schedule(pos)
		}
	}
	return false
}

// schedule marks an op position pending and widens [lo, hi) to its word. A
// position marked twice is one bit, so no op runs twice for one fault, and
// the drain never marks a position it has passed.
func (gr *Grader) schedule(pos int32) {
	w := int(pos >> 6)
	gr.pending[w] |= 1 << uint(pos&63)
	gr.lo = min(gr.lo, w)
	gr.hi = max(gr.hi, w+1)
}
