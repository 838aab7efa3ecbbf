package sim_test

import (
	"context"
	"fmt"
	"math/rand"
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

// referenceGradeSeq is the definitional sequential grader GradeSeqSitesObs
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
	cone := n.FaninCone(seeds...)
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
// on seeded random sequential netlists driven by ternary stimuli, under
// output-only, full-scan and on-line observation, over shuffled fault lists
// with and without a multi-site map, the screening, dropping and regrouping
// grader detects exactly the faults the word-major reference detects, and
// the reference detects none of the faults the screen skips. The telemetry
// totals keep the test honest: the screen and the regrouping both did real
// work.
func TestGradeSeqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reg := obs.New()
	for seed := int64(1); seed <= 10; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 5, Gates: 40, FFs: 6, Outputs: 3})
		u := fault.NewUniverse(n)
		stim := randomStimulus(rng, n, 40, seed%2 == 1)
		faults := allFaults(u)
		rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
		if len(faults) <= logic.WordBits-1 {
			t.Fatalf("seed %d: %d faults fit one word", seed, len(faults))
		}
		for _, o := range []struct {
			name string
			pts  []sim.ObsPoint
		}{
			{"outputs", sim.OutputObsPoints(n)},
			{"full-scan", sim.CombObsPoints(n)},
			{"online", onlineObsPoints(n)},
		} {
			for _, sm := range []*fault.SiteMap{nil, randomSiteMap(rng, n)} {
				got, err := sim.GradeSeqSitesObs(n, u, stim, o.pts, faults, sm, reg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceGradeSeq(n, u, stim, o.pts, faults, sm)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("seed %d obs=%s sites=%d", seed, o.name, sm.Len())
				diffSets(t, what, u, got, want)
				for _, fid := range screened(u, o.pts, faults, sm) {
					if want.Has(fid) {
						t.Errorf("%s: the screen skips %s, which the reference detects", what, u.Describe(u.FaultOf(fid)))
					}
				}
			}
		}
	}
	s := reg.Snapshot()
	if s.Counter("sim.gradeseq.unobservable") == 0 || s.Counter("sim.gradeseq.regroups") == 0 {
		t.Fatalf("screen skipped %d faults and survivors were regrouped %d times; want both > 0",
			s.Counter("sim.gradeseq.unobservable"), s.Counter("sim.gradeseq.regroups"))
	}
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
	got, err := sim.GradeSeqSitesObs(n, u, stim, sim.OutputObsPoints(n), faults, nil, reg)
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
	early, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults)
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
	got, err := sim.GradeSeqSitesObs(n, u, stim, sim.OutputObsPoints(n), faults, nil, reg)
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
	early, err := sim.GradeSeq(n, u, stim, sim.OutputObsPoints(n), faults)
	if err != nil {
		t.Fatal(err)
	}
	if early.Has(viaA) || early.Has(viaD) {
		t.Fatal("a target detected within two cycles; the moves are not exercised")
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
			det, err := sim.GradeSeqSitesObs(n, u, set.Stim, pts, remaining, nil, reg)
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
// not just the union TestPatternCampaignMatchesReference compares: on three
// seeded mission traces over the width-16 bench design, set k's delta lists,
// in FID order and all Detected, exactly the faults the reference grader
// detects for set k over the whole universe, minus those earlier sets
// detected. The provider grades one fault per equivalence class, so the
// test also asserts that a set after the first detects a class with at
// least two members: its delta is where the spreading shows.
func TestPatternProviderSetDeltas(t *testing.T) {
	n := bench.Build(16)
	u := fault.NewUniverse(n)
	sets := missionTraces(t, n, rand.New(rand.NewSource(24)), 3, 12)
	var deltas []fault.Delta
	p := &flow.PatternProvider{Sets: sets}
	err := p.Run(context.Background(), flow.Env{N: n, Universe: u}, func(d fault.Delta) error {
		deltas = append(deltas, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(sets) {
		t.Fatalf("%d deltas for %d sets", len(deltas), len(sets))
	}
	collapse := fault.NewCollapse(u)
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
			t.Errorf("set %d: delta %s#%d, want %s#%d", k, d.Source, d.Seq, p.Name(), k)
		}
		if got, wantIDs := fmt.Sprint(d.FIDs), fmt.Sprint(want.IDs()); got != wantIDs {
			t.Errorf("set %d: delta lists %s, want %s", k, got, wantIDs)
		}
		members := map[fault.FID]int{}
		for i, fid := range d.FIDs {
			if d.Statuses[i] != fault.Detected {
				t.Errorf("set %d: %s has status %v", k, u.Describe(u.FaultOf(fid)), d.Statuses[i])
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
	if spread == 0 {
		t.Fatal("no set after the first detects a class with two or more members; the spreading is not exercised")
	}
	if got, want := fmt.Sprint(p.Detected.IDs()), fmt.Sprint(earlier.IDs()); got != want {
		t.Errorf("Detected holds %s, the deltas %s", got, want)
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
			if _, err := sim.GradeSeqSitesObs(n, u, stim, pts, faults, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a200, a2000 := allocs(short), allocs(long); a200 != a2000 {
		t.Errorf("GradeSeqSitesObs allocates %v times over 200 cycles and %v over 2,000", a200, a2000)
	}
}
