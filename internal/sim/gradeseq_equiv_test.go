package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// referenceGradeSeq is the definitional sequential grader GradeSeq
// must match: every word of 63 faults gets its own netlist-walking refSim
// and runs every cycle of the stimulus. No screen, no fault dropping, no
// regrouping, no compiled kernel — just the detection rule.
func referenceGradeSeq(n *netlist.Netlist, u *fault.Universe, stim sim.Stimulus,
	observe []sim.ObsPoint, faults []fault.FID, sm *fault.SiteMap) (*fault.Set, error) {

	detected := fault.NewSet(u)
	const goodSlot = logic.WordBits - 1
	const lanes = logic.WordBits - 1

	for base := 0; base < len(faults); base += lanes {
		hi := base + lanes
		if hi > len(faults) {
			hi = len(faults)
		}
		batch := faults[base:hi]

		s, err := newRefSim(n)
		if err != nil {
			return nil, err
		}
		for lane, fid := range batch {
			f := u.FaultOf(fid)
			s.AddInjection(sim.Injection{Site: f.Site, SA: f.SA, Mask: 1 << uint(lane)})
			for _, rep := range sm.Replicas(f.Gate) {
				s.AddInjection(sim.Injection{
					Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: 1 << uint(lane)})
			}
		}
		s.ClearState(logic.X)

		caught := make([]bool, len(batch))
		for _, cyc := range stim.Cycles {
			for i, net := range stim.Inputs {
				s.SetInput(net, logic.PVSplat(cyc[i]))
			}
			s.EvalComb()
			for _, p := range observe {
				v := s.ObsVal(p)
				var diffMask uint64
				switch v.Get(goodSlot) {
				case logic.One:
					diffMask = v.L0
				case logic.Zero:
					diffMask = v.L1
				default:
					continue
				}
				for lane := range batch {
					if diffMask&(1<<uint(lane)) != 0 {
						caught[lane] = true
					}
				}
			}
			s.CommitState()
		}
		for lane, fid := range batch {
			if caught[lane] {
				detected.Add(fid)
			}
		}
	}
	return detected, nil
}

// onlineObsPoints is ObserveOnline's point set: the primary outputs plus the
// D pins of the flip-flops whose state can reach one.
func onlineObsPoints(n *netlist.Netlist) []sim.ObsPoint {
	pts := sim.OutputObsPoints(n)
	seeds := make([]netlist.NetID, len(pts))
	for i, p := range pts {
		seeds[i] = n.Gates[p.Gate].Ins[p.Pin]
	}
	cone := n.FaninCone(true, seeds...)
	for _, f := range n.FlipFlops() {
		if cone[f] {
			pts = append(pts, sim.ObsPoint{Gate: f, Pin: netlist.DffD})
		}
	}
	return pts
}

// randomStimulus drives the primary inputs of n for the given number of
// cycles with 0, 1 and X, some cycles entirely X. With undriven set the last
// primary input is left out of the stimulus, so it holds X (or its injected
// stuck value) throughout.
func randomStimulus(rng *rand.Rand, n *netlist.Netlist, cycles int, undriven bool) sim.Stimulus {
	var stim sim.Stimulus
	pis := n.PrimaryInputs()
	if undriven {
		pis = pis[:len(pis)-1]
	}
	for _, g := range pis {
		stim.Inputs = append(stim.Inputs, n.Gates[g].Out)
	}
	vals := []logic.V{logic.Zero, logic.One, logic.Zero, logic.One, logic.X}
	for c := 0; c < cycles; c++ {
		row := make([]logic.V, len(stim.Inputs))
		allX := rng.Intn(8) == 0
		for i := range row {
			row[i] = logic.X
			if !allX {
				row[i] = vals[rng.Intn(len(vals))]
			}
		}
		stim.Cycles = append(stim.Cycles, row)
	}
	return stim
}

// heldStimulus is randomStimulus with every primary input whose bit is set
// in held (bit i%64 for input i) driven at one random known value in every
// cycle, as a mission trace holds its test and debug pins.
func heldStimulus(rng *rand.Rand, n *netlist.Netlist, cycles int, held uint64) sim.Stimulus {
	stim := randomStimulus(rng, n, cycles, false)
	for i := range stim.Inputs {
		if held>>uint(i%64)&1 == 0 {
			continue
		}
		v := logic.FromBit(rng.Uint64())
		for _, row := range stim.Cycles {
			row[i] = v
		}
	}
	return stim
}

// pinObsPoints is the output pins of n plus count random input pins of its
// combinational gates, so that an observed pin can sit on a fault's
// fanout-free chain.
func pinObsPoints(rng *rand.Rand, n *netlist.Netlist, count int) []sim.ObsPoint {
	pts := sim.OutputObsPoints(n)
	var comb []netlist.GateID
	for i := range n.Gates {
		if n.Gates[i].Kind.IsComb() {
			comb = append(comb, netlist.GateID(i))
		}
	}
	for range count {
		g := comb[rng.Intn(len(comb))]
		pts = append(pts, sim.ObsPoint{Gate: g, Pin: int32(rng.Intn(len(n.Gates[g].Ins)))})
	}
	return pts
}

// obsSet is one named choice of observation points.
type obsSet struct {
	name string
	pts  []sim.ObsPoint
}

// gradeSeqObsSets lists the observation choices the equivalence tests grade
// under: output-only, full-scan, on-line, and the outputs plus four random
// combinational-gate input pins.
func gradeSeqObsSets(rng *rand.Rand, n *netlist.Netlist) []obsSet {
	return []obsSet{
		{"outputs", sim.OutputObsPoints(n)},
		{"full-scan", sim.CombObsPoints(n)},
		{"online", onlineObsPoints(n)},
		{"pins", pinObsPoints(rng, n, 4)},
	}
}

// checkGradeSeq grades faults with GradeSeq, recording into reg, and
// with the reference, reports every fault the two disagree on and every
// fault the screen skips that the reference detects, and returns the
// grader's detections.
func checkGradeSeq(t *testing.T, what string, reg *obs.Registry, u *fault.Universe, stim sim.Stimulus,
	pts []sim.ObsPoint, faults []fault.FID, sm *fault.SiteMap) *fault.Set {

	t.Helper()
	got, err := sim.GradeSeq(u.N, u, stim, pts, faults, sm, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceGradeSeq(u.N, u, stim, pts, faults, sm)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, what, u, got, want)
	for _, fid := range screened(u, pts, faults, sm) {
		if want.Has(fid) {
			t.Errorf("%s: the screen skips %s, which the reference detects", what, u.Describe(u.FaultOf(fid)))
		}
	}
	return got
}

// randomSiteMap records a few replicas, each a distinct live gate of the
// same kind as its original, so every pin of the original exists on it.
func randomSiteMap(rng *rand.Rand, n *netlist.Netlist) *fault.SiteMap {
	byKind := map[netlist.Kind][]netlist.GateID{}
	for i := range n.Gates {
		byKind[n.Gates[i].Kind] = append(byKind[n.Gates[i].Kind], netlist.GateID(i))
	}
	sm := fault.NewSiteMap()
	for added := 0; added < 6; {
		orig := netlist.GateID(rng.Intn(len(n.Gates)))
		same := byKind[n.Gates[orig].Kind]
		rep := same[rng.Intn(len(same))]
		if rep != orig {
			sm.AddReplica(orig, rep)
			added++
		}
	}
	return sm
}

func allFaults(u *fault.Universe) []fault.FID {
	all := make([]fault.FID, u.NumFaults())
	for id := range all {
		all[id] = fault.FID(id)
	}
	return all
}

func diffSets(t *testing.T, what string, u *fault.Universe, got, want *fault.Set) {
	t.Helper()
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if got.Has(fid) != want.Has(fid) {
			t.Errorf("%s %s: grader says %v, reference says %v",
				what, u.Describe(u.FaultOf(fid)), got.Has(fid), want.Has(fid))
		}
	}
}

// screened returns the faults of the list the grader's screen skips.
func screened(u *fault.Universe, pts []sim.ObsPoint, faults []fault.FID, sm *fault.SiteMap) []fault.FID {
	keep := fault.NewSet(u)
	for _, fid := range sim.ObservableFaults(u, pts, faults, sm) {
		keep.Add(fid)
	}
	var skip []fault.FID
	for _, fid := range faults {
		if !keep.Has(fid) {
			skip = append(skip, fid)
		}
	}
	return skip
}

// TestGradeSeqMatchesReference is the sequential grader's equivalence pin:
// on seeded random sequential netlists driven by ternary stimuli, free or
// holding about half the primary inputs at one value, under output-only,
// full-scan, on-line and gate-pin observation (where an observed pin can
// sit on a fault's fanout-free chain), over shuffled fault lists with and
// without a multi-site map, the screening, dropping, regrouping and proving
// grader detects exactly the faults the word-major reference detects, and
// the reference detects none of the faults the screen skips. Each list is
// graded whole, where the proof runs once the survivors fit one word, and
// in lists of 63, where it runs before the first cycle on faults that later
// cycles would detect. The telemetry totals keep the test honest: the
// screen, the regrouping and the proof all did real work.
func TestGradeSeqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reg := obs.New()
	for seed := int64(1); seed <= 10; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 5, Gates: 40, FFs: 6, Outputs: 3})
		u := fault.NewUniverse(n)
		faults := allFaults(u)
		rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
		if len(faults) <= logic.WordBits-1 {
			t.Fatalf("seed %d: %d faults fit one word", seed, len(faults))
		}
		for _, st := range []struct {
			name string
			stim sim.Stimulus
		}{
			{"free", randomStimulus(rng, n, 40, seed%2 == 1)},
			{"held", heldStimulus(rng, n, 40, rng.Uint64())},
		} {
			for _, o := range gradeSeqObsSets(rng, n) {
				for _, sm := range []*fault.SiteMap{nil, randomSiteMap(rng, n)} {
					what := fmt.Sprintf("seed %d %s obs=%s sites=%d", seed, st.name, o.name, sm.Len())
					checkGradeSeq(t, what, reg, u, st.stim, o.pts, faults, sm)
					for lo := 0; lo < len(faults); lo += logic.WordBits - 1 {
						part := faults[lo:min(lo+logic.WordBits-1, len(faults))]
						checkGradeSeq(t, fmt.Sprintf("%s from %d", what, lo), reg, u, st.stim, o.pts, part, sm)
					}
				}
			}
		}
	}
	s := reg.Snapshot()
	for _, name := range []string{"sim.gradeseq.unobservable", "sim.gradeseq.regroups", "sim.gradeseq.proved"} {
		if s.Counter(name) == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
}

// FuzzGradeSeqProof is TestGradeSeqMatchesReference over generated cases,
// without a site map: a random netlist from netSeed, a stimulus from
// stimSeed holding the primary inputs whose bit is set in held, and
// observation choice obsChoice (outputs, full-scan, on-line, or outputs plus
// random gate pins). The grader must detect exactly what the reference
// detects, over all faults and over each list of 63. The seed corpus in
// testdata/fuzz/FuzzGradeSeqProof holds one case per observation choice:
// outputs with half the inputs held, full-scan with all held, on-line with
// none held, and gate pins with half held.
func FuzzGradeSeqProof(f *testing.F) {
	f.Fuzz(func(t *testing.T, netSeed int64, held uint8, stimSeed int64, obsChoice uint8) {
		n := testutil.RandomNetlist(netSeed, testutil.RandOpts{Inputs: 6, Gates: 30, FFs: 4, Outputs: 3})
		u := fault.NewUniverse(n)
		rng := rand.New(rand.NewSource(stimSeed))
		stim := heldStimulus(rng, n, 24, uint64(held))
		sets := gradeSeqObsSets(rng, n)
		o := sets[int(obsChoice)%len(sets)]
		faults := allFaults(u)
		checkGradeSeq(t, o.name, nil, u, stim, o.pts, faults, nil)
		for lo := 0; lo < len(faults); lo += logic.WordBits - 1 {
			part := faults[lo:min(lo+logic.WordBits-1, len(faults))]
			checkGradeSeq(t, fmt.Sprintf("%s from %d", o.name, lo), nil, u, stim, o.pts, part, nil)
		}
	})
}

// TestGradeSeqRegroupEdges pins the regrouping edge cases on a hand-built
// circuit: a buffer chain b -> po_c whose stuck-at-0 faults are all caught
// in cycle 0, beside a two-stage shift register a -> q1 -> q2 -> po_q. The
// fault list is laid out so that
//
//   - word 1 holds only chain stuck-at-0 faults and is wholly detected in
//     cycle 0;
//   - the survivors then fit one word, so they are regrouped once;
//   - a stuck-at-1, starting in lane 0 of word 2, captures its effect into
//     q1 in cycle 0, moves to lane 3 of word 0, and is detected at po_q only
//     in the last cycle — so its flip-flop state had to move with it.
func TestGradeSeqRegroupEdges(t *testing.T) {
	n := netlist.New("regroup")
	a := n.Input("a")
	b := n.Input("b")
	n.OutputPort("po_q", n.DFF("q2", n.DFF("q1", a)))
	cur := b
	for i := 0; i < 62; i++ {
		cur = n.Buf(fmt.Sprintf("c%d", i), cur)
	}
	n.OutputPort("po_c", cur)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)

	// The chain's fault sites: b's output, every buffer pin, po_c's input.
	var sa0, sa1 []fault.FID
	chainSite := func(g netlist.GateID, pin int32) {
		f0, f1 := u.PinFaults(g, pin)
		sa0, sa1 = append(sa0, f0), append(sa1, f1)
	}
	chainSite(mustGateID(t, n, "b"), fault.OutputPin)
	for i := 0; i < 62; i++ {
		g := mustGateID(t, n, fmt.Sprintf("c%d", i))
		chainSite(g, 0)
		chainSite(g, fault.OutputPin)
	}
	chainSite(mustGateID(t, n, "po_c"), 0)
	_, target := u.PinFaults(mustGateID(t, n, "a"), fault.OutputPin)

	faults := append([]fault.FID{}, sa1[:3]...) // word 0, lanes 0-2
	faults = append(faults, sa0[:123]...)       // word 0 lanes 3-62, all of word 1
	faults = append(faults, target)             // word 2, lane 0
	faults = append(faults, sa1[3:8]...)

	stim := sim.Stimulus{Inputs: []netlist.NetID{a, b}, Cycles: [][]logic.V{
		{logic.Zero, logic.One}, // q1 captures the target's stuck 1
		{logic.X, logic.One},    // ... which shifts into q2
		{logic.X, logic.One},    // ... and reaches po_q
	}}
	reg := obs.New()
	got, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceGradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "regroup", u, got, want)
	if !got.Has(target) || got.Count() != 124 {
		t.Fatalf("detected %d faults (target %v), want the 123 chain stuck-at-0 faults and the target",
			got.Count(), got.Has(target))
	}
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"sim.gradeseq.lanes":        int64(len(faults)),
		"sim.gradeseq.words":        3,
		"sim.gradeseq.cycles":       3 + 1 + 1,
		"sim.gradeseq.regroups":     1,
		"sim.gradeseq.unobservable": 0,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Two cycles are not enough: the detection really is in the last cycle,
	// after the move.
	stim.Cycles = stim.Cycles[:2]
	early, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if early.Has(target) {
		t.Fatal("target detected within two cycles; the edge case is not exercised")
	}
}

// TestGradeSeqRegroupCompaction pins the moves regrouping makes a whole word
// at a time, on the circuit of TestGradeSeqRegroupEdges: a buffer chain
// b -> po_c beside a two-stage shift register a -> q1 -> q2 -> po_q. With b
// at 1 the chain's stuck-at-0 faults are all caught in cycle 0 and its
// stuck-at-1 faults never are. Two targets, a/Z and q1/D stuck-at-1, put a 1
// into q1 in cycle 0 that the good machine does not hold, which reaches po_q
// only in cycle 2. The fault list is laid out so that after cycle 0
//
//   - word 0 keeps 60 survivors in lanes 0-59 and word 2 none, so the 66
//     survivors are regrouped from three words into two;
//   - word 1's six survivors are lanes 1, 50 (a/Z), 51-53 and 57 (q1/D). Its
//     first three land in lanes 60-62 of word 0 and the other three spill
//     into lanes 0-2 of word 1;
//   - so a/Z moves down 49 lanes and q1/D 55, and each carries its diverged
//     flip-flop state into a different destination word.
func TestGradeSeqRegroupCompaction(t *testing.T) {
	n := netlist.New("compaction")
	a := n.Input("a")
	b := n.Input("b")
	n.OutputPort("po_q", n.DFF("q2", n.DFF("q1", a)))
	cur := b
	for i := 0; i < 62; i++ {
		cur = n.Buf(fmt.Sprintf("c%d", i), cur)
	}
	n.OutputPort("po_c", cur)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)

	var sa0, sa1 []fault.FID
	chainSite := func(g netlist.GateID, pin int32) {
		f0, f1 := u.PinFaults(g, pin)
		sa0, sa1 = append(sa0, f0), append(sa1, f1)
	}
	chainSite(mustGateID(t, n, "b"), fault.OutputPin)
	for i := 0; i < 62; i++ {
		g := mustGateID(t, n, fmt.Sprintf("c%d", i))
		chainSite(g, 0)
		chainSite(g, fault.OutputPin)
	}
	chainSite(mustGateID(t, n, "po_c"), 0)
	_, viaA := u.PinFaults(mustGateID(t, n, "a"), fault.OutputPin)
	_, viaD := u.PinFaults(mustGateID(t, n, "q1"), netlist.DffD)

	word1 := make([]fault.FID, logic.WordBits-1)
	caught, kept := sa0[3:], sa1[60:]
	for l := range word1 {
		switch l {
		case 1, 51, 52, 53:
			word1[l], kept = kept[0], kept[1:]
		case 50:
			word1[l] = viaA
		case 57:
			word1[l] = viaD
		default:
			word1[l], caught = caught[0], caught[1:]
		}
	}
	faults := append([]fault.FID{}, sa1[:60]...) // word 0, lanes 0-59
	faults = append(faults, sa0[:3]...)          // word 0, lanes 60-62
	faults = append(faults, word1...)
	faults = append(faults, caught[:5]...) // word 2

	stim := sim.Stimulus{Inputs: []netlist.NetID{a, b}, Cycles: [][]logic.V{
		{logic.Zero, logic.One}, // q1 captures the targets' stuck 1
		{logic.X, logic.One},    // ... which shifts into q2
		{logic.X, logic.One},    // ... and reaches po_q
	}}
	reg := obs.New()
	got, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceGradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "compaction", u, got, want)
	if !got.Has(viaA) || !got.Has(viaD) || got.Count() != 3+57+5+2 {
		t.Fatalf("detected %d faults (a/Z %v, q1/D %v), want the 65 chain stuck-at-0 faults and both targets",
			got.Count(), got.Has(viaA), got.Has(viaD))
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"sim.gradeseq.lanes":    int64(len(faults)),
		"sim.gradeseq.words":    3,
		"sim.gradeseq.cycles":   3 + 2 + 2,
		"sim.gradeseq.regroups": 1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// The targets are detected only in the last cycle, after the move.
	stim.Cycles = stim.Cycles[:2]
	early, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if early.Has(viaA) || early.Has(viaD) {
		t.Fatal("a target detected within two cycles; the moves are not exercised")
	}
}

// gradeProved is checkGradeSeq of single-site faults that also returns how
// many faults the proof retired.
func gradeProved(t *testing.T, what string, u *fault.Universe, stim sim.Stimulus, pts []sim.ObsPoint,
	faults []fault.FID) (*fault.Set, int64) {

	t.Helper()
	reg := obs.New()
	got := checkGradeSeq(t, what, reg, u, stim, pts, faults, nil)
	return got, reg.Snapshot().Counter("sim.gradeseq.proved")
}

// randomColumn draws cycles random 0/1 values.
func randomColumn(rng *rand.Rand, cycles int) []logic.V {
	col := make([]logic.V, cycles)
	for c := range col {
		col[c] = logic.FromBit(rng.Uint64())
	}
	return col
}

// columnStimulus builds a stimulus from one column of values per input.
func columnStimulus(inputs []netlist.NetID, cols ...[]logic.V) sim.Stimulus {
	stim := sim.Stimulus{Inputs: inputs, Cycles: make([][]logic.V, len(cols[0]))}
	for c := range stim.Cycles {
		for _, col := range cols {
			stim.Cycles[c] = append(stim.Cycles[c], col[c])
		}
	}
	return stim
}

// TestGradeSeqProofStopsAtObservedPins pins the local proof's two
// observation rules on a chain that a held input masks further on:
// x = AND(a, b) feeds only y = OR(x, c), and y feeds only z = AND(y, e), with
// e held at 0, so z is 0 whatever x and y do. An observation point on y's
// pin A0 reads x.
//
//   - x stuck-at-1 shows at that pin. Its chain must stop at x, the net an
//     observation point reads; past it, z would prove the fault.
//   - y/A0 stuck-at-1 is the observed pin itself, which the observation
//     reads with its injection; it must not be tried.
//   - y stuck-at-1 reaches no observation point but through z, which masks
//     it: the proof must retire it, so the rules above are what keep the
//     other two.
func TestGradeSeqProofStopsAtObservedPins(t *testing.T) {
	n := netlist.New("observed-chain")
	a, b, c, e := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("e")
	x := n.And("x", a, b)
	n.OutputPort("po", n.And("z", n.Or("y", x, c), e))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	y := mustGateID(t, n, "y")
	_, xSA1 := u.PinFaults(mustGateID(t, n, "x"), fault.OutputPin)
	_, pinSA1 := u.PinFaults(y, 0)
	_, ySA1 := u.PinFaults(y, fault.OutputPin)
	pts := append(sim.OutputObsPoints(n), sim.ObsPoint{Gate: y, Pin: 0})

	rng := rand.New(rand.NewSource(3))
	const cycles = 16
	zero := make([]logic.V, cycles)
	stim := columnStimulus([]netlist.NetID{a, b, c, e},
		randomColumn(rng, cycles), randomColumn(rng, cycles), randomColumn(rng, cycles), zero)
	got, proved := gradeProved(t, "observed chain", u, stim, pts, []fault.FID{xSA1, pinSA1, ySA1})
	if !got.Has(xSA1) || !got.Has(pinSA1) || got.Has(ySA1) || proved != 1 {
		t.Errorf("detected x/Z %v, y/A0 %v, y/Z %v with %d proved; want the first two detected and y/Z proved",
			got.Has(xSA1), got.Has(pinSA1), got.Has(ySA1), proved)
	}
}

// TestGradeSeqProofExpandsReconvergence pins the proof on the bench design's
// tied carry-in, a full adder with cin tied to 1: sum = (a XOR b) XOR 1 and
// cout = t1 OR t2 with t1 = AND(a, b) and t2 = AND(a XOR b, 1), so
// cout = a OR b. Either input of t1 stuck-at-1 leaves cout = a OR b, but only
// at cout, where t2 reconverges with the site: t2 depends on the site, so
// its gates must be expanded. Cut to a free variable, t2 lets t1's value
// through, and the proof retires only the three faults the tie masks
// directly (the tie's stuck-at-1 and the stuck-at-1 of the pins reading it).
func TestGradeSeqProofExpandsReconvergence(t *testing.T) {
	n := netlist.New("tied-carry")
	a, b := n.Input("a"), n.Input("b")
	one := n.Tie1("cin1")
	axb := n.Xor("axb", a, b)
	n.OutputPort("po_s", n.Xor("s", axb, one))
	n.OutputPort("po_c", n.Or("c", n.And("t1", a, b), n.And("t2", axb, one)))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	var faults []fault.FID
	for _, site := range []struct {
		gate string
		pin  int32
	}{{"cin1", fault.OutputPin}, {"s", 1}, {"t2", 1}, {"t1", 0}, {"t1", 1}} {
		_, sa1 := u.PinFaults(mustGateID(t, n, site.gate), site.pin)
		faults = append(faults, sa1)
	}
	rng := rand.New(rand.NewSource(4))
	stim := columnStimulus([]netlist.NetID{a, b}, randomColumn(rng, 16), randomColumn(rng, 16))
	got, proved := gradeProved(t, "tied carry", u, stim, sim.OutputObsPoints(n), faults)
	if got.Count() != 0 || proved != int64(len(faults)) {
		t.Errorf("detected %d and proved %d of the %d redundant faults; want all proved",
			got.Count(), proved, len(faults))
	}
}

// TestGradeSeqProofHeldInputs pins which stimulus inputs the proof takes as
// constants: a primary input at one known value in every cycle, and nothing
// else. a stuck-at-1 reaches po_y = AND(a, e) only; b stuck-at-1 reaches
// po_v = AND(b, g) only, with g = NOT(f) and f at 0, so b's fault shows
// whenever b is 0. The stimulus also drives g at 0 in every cycle, which
// the settle overwrites: g is a gate's output, not a held input, and taking
// it as one would retire b's fault. e is held at 0, or at 0 but for one
// cycle at X, or at 0 but for one cycle at 1 with a at 0, which shows a's
// fault.
func TestGradeSeqProofHeldInputs(t *testing.T) {
	n := netlist.New("held")
	a, e, b, f := n.Input("a"), n.Input("e"), n.Input("b"), n.Input("f")
	g := n.Not("g", f)
	n.OutputPort("po_y", n.And("y", a, e))
	n.OutputPort("po_v", n.And("v", b, g))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(n)
	_, aSA1 := u.PinFaults(mustGateID(t, n, "a"), fault.OutputPin)
	_, bSA1 := u.PinFaults(mustGateID(t, n, "b"), fault.OutputPin)

	const cycles, odd = 8, 5
	rng := rand.New(rand.NewSource(5))
	zero := make([]logic.V, cycles)
	for _, tc := range []struct {
		name    string
		e       logic.V // e in cycle odd; 0 in every other cycle
		aProved bool
	}{
		{"held", logic.Zero, true},
		{"X in one cycle", logic.X, false},
		{"1 in one cycle", logic.One, false},
	} {
		eCol := make([]logic.V, cycles)
		eCol[odd] = tc.e
		aCol := randomColumn(rng, cycles)
		aCol[odd] = logic.Zero
		stim := columnStimulus([]netlist.NetID{a, e, b, f, g}, aCol, eCol, randomColumn(rng, cycles), zero, zero)
		got, proved := gradeProved(t, tc.name, u, stim, sim.OutputObsPoints(n), []fault.FID{aSA1, bSA1})
		want := int64(0)
		if tc.aProved {
			want = 1
		}
		if proved != want || !got.Has(bSA1) {
			t.Errorf("%s: proved %d faults, b/Z detected %v; want %d proved and b/Z detected",
				tc.name, proved, got.Has(bSA1), want)
		}
		if detected := tc.e == logic.One; got.Has(aSA1) != detected {
			t.Errorf("%s: a/Z detected %v, want %v", tc.name, got.Has(aSA1), detected)
		}
	}
}

func mustGateID(t *testing.T, n *netlist.Netlist, name string) netlist.GateID {
	t.Helper()
	id, ok := n.GateByName(name)
	if !ok {
		t.Fatalf("no gate %q", name)
	}
	return id
}

// TestGradeSeqScreenTraceRegister checks that the screen finds the paper's
// on-line blind spot on the benchmark design: with output-only observation
// it skips every fault of the trace register, which is never read out. The
// only other faults it skips are those of the debug_en and rstn inputs,
// which only the trace register reads, and of the subtractor's final carry,
// which the design discards.
func TestGradeSeqScreenTraceRegister(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	inTrace := func(fid fault.FID) bool {
		return strings.HasPrefix(n.Gates[u.FaultOf(fid).Gate].Name, "trace")
	}
	skip := screened(u, sim.OutputObsPoints(n), allFaults(u), nil)
	trace := 0
	for _, fid := range skip {
		switch name := n.Gates[u.FaultOf(fid).Gate].Name; {
		case inTrace(fid):
			trace++
		case name == "debug_en", name == "rstn", strings.HasPrefix(name, "sub_add_fa15_"):
		default:
			t.Errorf("screen skipped %s, which an output can read", u.Describe(u.FaultOf(fid)))
		}
	}
	all := 0
	for _, fid := range allFaults(u) {
		if inTrace(fid) {
			all++
		}
	}
	if trace == 0 || trace != all || len(skip) != 246 {
		t.Errorf("screen skipped %d faults, %d of the trace register's %d; want 246 with all of them",
			len(skip), trace, all)
	}
}

// missionTraces draws count seeded stimuli for the bench design in mission
// mode: scan and debug pins at 0, rstn at 1, exactly one of op0-op3 high,
// the data inputs random.
func missionTraces(t testing.TB, n *netlist.Netlist, rng *rand.Rand, count, cycles int) []flow.PatternSet {
	t.Helper()
	pis := n.PrimaryInputs()
	inputs := make([]netlist.NetID, len(pis))
	held := make([]logic.V, len(pis)) // X marks a data input drawn per cycle
	var ops []int
	for i, g := range pis {
		inputs[i] = n.Gates[g].Out
		switch name := n.Gates[g].Name; name {
		case "scan_en", "scan_in", "debug_en":
			held[i] = logic.Zero
		case "rstn":
			held[i] = logic.One
		case "op0", "op1", "op2", "op3":
			held[i] = logic.Zero
			ops = append(ops, i)
		default:
			held[i] = logic.X
		}
	}
	if len(ops) != 4 {
		t.Fatalf("design has %d of op0-op3", len(ops))
	}
	sets := make([]flow.PatternSet, count)
	for s := range sets {
		stim := sim.Stimulus{Inputs: inputs}
		for c := 0; c < cycles; c++ {
			row := append([]logic.V{}, held...)
			for i, v := range row {
				if v == logic.X {
					row[i] = logic.FromBit(rng.Uint64())
				}
			}
			row[ops[rng.Intn(len(ops))]] = logic.One
			stim.Cycles = append(stim.Cycles, row)
		}
		sets[s] = flow.PatternSet{Name: fmt.Sprintf("mission%d", s), Stim: stim}
	}
	return sets
}

// BenchmarkGradeSeqMission grades the mission-import workload's pattern
// sets: four seeded 2,000-cycle mission traces on the width-16 bench design,
// observed at its outputs, each set grading the faults the sets before it
// left undetected, as flow.PatternProvider does. It reports the word-cycles
// each grading pass simulates.
func BenchmarkGradeSeqMission(b *testing.B) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	sets := missionTraces(b, n, rand.New(rand.NewSource(1)), 4, 2000)
	pts := sim.OutputObsPoints(n)
	reg := obs.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remaining := allFaults(u)
		for _, set := range sets {
			det, err := sim.GradeSeq(n, u, set.Stim, pts, remaining, nil, reg)
			if err != nil {
				b.Fatal(err)
			}
			live := remaining[:0]
			for _, fid := range remaining {
				if !det.Has(fid) {
					live = append(live, fid)
				}
			}
			remaining = live
		}
	}
	b.ReportMetric(float64(reg.Snapshot().Counter("sim.gradeseq.cycles"))/float64(b.N), "word-cycles/op")
}

// benchClassDigest is the classification of the width-16 bench design under
// its three scenarios at backtrack limit 16 with one worker, with no class
// left Aborted: the engine proves every deselected scan-mux pin untestable.
// Pattern grading only adds mission detections, so it must not move.
const benchClassDigest = "ffbeb3aff1682ecc15aabe9af1cb83f0cfd638e097ac9cbfcf1423be9fcee052"

// TestPatternCampaignMatchesReference runs the campaign at the benchmark's
// mission-import configuration (width 16, backtrack limit 16, one worker,
// four seeded mission traces, here 200 cycles each) and checks that the
// pattern provider's detections equal the reference grader's over the same
// traces and that the classification is unchanged.
func TestPatternCampaignMatchesReference(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	sets := missionTraces(t, n, rand.New(rand.NewSource(1)), 4, 200)
	r, err := flow.RunCampaign(context.Background(), n, u, bench.Scenarios(2), flow.Options{
		ATPG:     atpg.Options{BacktrackLimit: 16},
		Workers:  1,
		Patterns: sets,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fault.NewSet(u)
	for _, set := range sets {
		det, err := referenceGradeSeq(n, u, set.Stim, sim.OutputObsPoints(n), allFaults(u), nil)
		if err != nil {
			t.Fatal(err)
		}
		want.UnionWith(det)
	}
	diffSets(t, "campaign", u, r.PatternDetected, want)
	if want.Count() == 0 {
		t.Fatal("the traces detect nothing")
	}
	if d := r.ClassDigest(); d != benchClassDigest {
		t.Errorf("class digest %s, want %s", d, benchClassDigest)
	}
}

// TestPatternProviderSetDeltas pins every delta flow.PatternProvider emits,
// not just the union TestPatternCampaignMatchesReference compares: on seeded
// mission traces over the width-16 bench design, set k's delta lists, in
// FID order and all Detected, exactly the faults the reference grader
// detects for set k over the whole universe, minus those earlier sets
// detected. Two trace shapes are checked. Three 12-cycle traces: the
// provider grades one fault per equivalence class, so a set after the first
// must detect a class with at least two members, where the spreading shows.
// Four 200-cycle traces: the first set's survivors come to fit one word and
// every set meets the residue the proof retires, so the proof must retire
// faults.
func TestPatternProviderSetDeltas(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	collapse := fault.NewCollapse(u)
	for _, tc := range []struct {
		seed           int64
		count, cycles  int
		spread, proved bool
	}{
		{seed: 24, count: 3, cycles: 12, spread: true},
		{seed: 1, count: 4, cycles: 200, proved: true},
	} {
		what := fmt.Sprintf("%d %d-cycle traces", tc.count, tc.cycles)
		sets := missionTraces(t, n, rand.New(rand.NewSource(tc.seed)), tc.count, tc.cycles)
		var deltas []fault.Delta
		p := &flow.PatternProvider{Sets: sets}
		reg := obs.New()
		err := p.Run(context.Background(), flow.Env{N: n, Universe: u, Metrics: reg}, func(d fault.Delta) error {
			deltas = append(deltas, d)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != len(sets) {
			t.Fatalf("%s: %d deltas for %d sets", what, len(deltas), len(sets))
		}
		earlier := fault.NewSet(u)
		spread := 0 // later-set classes detected with two or more members
		for k, set := range sets {
			want, err := referenceGradeSeq(n, u, set.Stim, sim.OutputObsPoints(n), allFaults(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			want.DiffWith(earlier)
			d := deltas[k]
			if d.Source != p.Name() || d.Seq != k {
				t.Errorf("%s: set %d: delta %s#%d, want %s#%d", what, k, d.Source, d.Seq, p.Name(), k)
			}
			if got, wantIDs := fmt.Sprint(d.FIDs), fmt.Sprint(want.IDs()); got != wantIDs {
				t.Errorf("%s: set %d: delta lists %s, want %s", what, k, got, wantIDs)
			}
			members := map[fault.FID]int{}
			for i, fid := range d.FIDs {
				if d.Statuses[i] != fault.Detected {
					t.Errorf("%s: set %d: %s has status %v", what, k, u.Describe(u.FaultOf(fid)), d.Statuses[i])
				}
				members[collapse.Rep(fid)]++
			}
			for _, c := range members {
				if k > 0 && c >= 2 {
					spread++
				}
			}
			earlier.UnionWith(want)
		}
		if tc.spread && spread == 0 {
			t.Errorf("%s: no set after the first detects a class with two or more members; the spreading is not exercised", what)
		}
		if proved := reg.Snapshot().Counter("sim.gradeseq.proved"); tc.proved && proved == 0 {
			t.Errorf("%s: the proof retired no fault", what)
		}
		if got, want := fmt.Sprint(p.Detected.IDs()), fmt.Sprint(earlier.IDs()); got != want {
			t.Errorf("%s: Detected holds %s, the deltas %s", what, got, want)
		}
	}
}

// TestPatternProviderProvesMissionResidue pins what the proof removes at the
// mission-import workload's shape: four seeded 2,000-cycle mission traces
// over the width-16 bench design, graded by flow.PatternProvider. The
// observable classes no trace detects are exactly the 54 the design's test
// structure and tied carry-in leave: both stuck-at faults of every scan
// mux's scan-path pin A1 and the stuck-at-0 of its select pin A2 (held by
// scan_en at 0), scan_en stuck-at-0, and five faults around the
// subtractor's tied carry-in. The proof retires all 54 in every set, so the
// first set stops soon after its last detection and the other three
// simulate no cycle.
func TestPatternProviderProvesMissionResidue(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	sets := missionTraces(t, n, rand.New(rand.NewSource(1)), 4, 2000)
	want := []string{
		"scan_en/Z s-a-0", "sub_cin1/Z s-a-1", "sub_add_fa0_s/A1 s-a-1",
		"sub_add_fa0_t1/A0 s-a-1", "sub_add_fa0_t1/A1 s-a-1", "sub_add_fa0_t2/A1 s-a-1",
	}
	for i := 0; i < 16; i++ {
		for _, f := range []string{"A1 s-a-0", "A1 s-a-1", "A2 s-a-0"} {
			want = append(want, fmt.Sprintf("smux%d/%s", i, f))
		}
	}

	reg := obs.New()
	p := &flow.PatternProvider{Sets: sets}
	cycles := make([]int64, len(sets)) // sim.gradeseq.cycles after each set
	err := p.Run(context.Background(), flow.Env{N: n, Universe: u, Metrics: reg}, func(d fault.Delta) error {
		cycles[d.Seq] = reg.Snapshot().Counter("sim.gradeseq.cycles")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	collapse := fault.NewCollapse(u)
	var left []fault.FID // the graded fault of every class no set detected
	for _, fid := range allFaults(u) {
		if collapse.Rep(fid) == fid && !p.Detected.Has(fid) {
			left = append(left, fid)
		}
	}
	var got []string
	for _, fid := range sim.ObservableFaults(u, sim.OutputObsPoints(n), left, nil) {
		got = append(got, u.Describe(u.FaultOf(fid)))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("observable classes no set detects:\n%s\nwant the %d residue classes:\n%s",
			strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	if proved := reg.Snapshot().Counter("sim.gradeseq.proved"); proved != int64(len(sets)*len(want)) {
		t.Errorf("the proof retired %d faults, want the %d residue classes in each of %d sets",
			proved, len(want), len(sets))
	}
	if cycles[0] > 500 || cycles[len(sets)-1] != cycles[0] {
		t.Errorf("word-cycles after each set %v; want at most 500, all in the first", cycles)
	}
}

// TestGradeSeqAllocsIndependentOfCycles pins that sequential grading does
// not allocate per cycle: grading the whole universe of the width-16 bench
// design on one mission trace makes as many allocations over 2,000 cycles
// as over its first 200. The count covers the simulator, the words and the
// result; a settle, an observation or a regroup that allocated would grow
// it with the cycles.
func TestGradeSeqAllocsIndependentOfCycles(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	long := missionTraces(t, n, rand.New(rand.NewSource(25)), 1, 2000)[0].Stim
	short := sim.Stimulus{Inputs: long.Inputs, Cycles: long.Cycles[:200]}
	pts := sim.OutputObsPoints(n)
	faults := allFaults(u)
	allocs := func(stim sim.Stimulus) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := sim.GradeSeq(n, u, stim, pts, faults, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a200, a2000 := allocs(short), allocs(long); a200 != a2000 {
		t.Errorf("GradeSeq allocates %v times over 200 cycles and %v over 2,000", a200, a2000)
	}
}
