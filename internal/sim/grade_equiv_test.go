package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"olfui/internal/bench"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// refCounts is the forward activation screen counted by referenceGrade: the
// per-word fault gradings a grader must evaluate and those it must screen.
type refCounts struct{ evals, screened int64 }

func (c *refCounts) add(d refCounts) {
	c.evals += d.evals
	c.screened += d.screened
}

// referenceGrade is the definitional grader the Grader must match. For every
// word of patterns it settles the good machine on refSim, then for every
// listed fault not yet detected re-settles the ENTIRE faulty machine — every
// site of the fault, its own and its replicas', stuck at once — with a full
// pass and compares every observation point. No screen, no cone scheduling,
// no undo logs, no compiled kernel — just the semantics.
//
// It also counts the forward activation screen, fault by fault: a fault with
// a site whose net has a good lane at the definite opposite of its stuck
// value is evaluated, any other is screened, and a screened fault the full
// pass detects fails the test.
func referenceGrade(t *testing.T, n *netlist.Netlist, u *fault.Universe, obsPts []sim.ObsPoint,
	sm *fault.SiteMap, patterns, states []sim.Pattern, faults []fault.FID) (*fault.Set, refCounts) {
	t.Helper()
	r := mustRefSim(t, n)
	pis := n.PrimaryInputs()
	ffs := n.FlipFlops()
	detected := fault.NewSet(u)
	var c refCounts
	goodObs := make([]logic.PV, len(obsPts))
	good := make([]logic.PV, len(n.Nets))
	for base := 0; base < len(patterns); base += logic.WordBits {
		hi := min(base+logic.WordBits, len(patterns))
		batch, stateBatch := patterns[base:hi], []sim.Pattern(nil)
		if states != nil {
			stateBatch = states[base:hi]
		}
		setInputs := func() {
			r.ClearState(logic.X)
			for pi, g := range pis {
				v := logic.PVAllX
				for k := range batch {
					v = v.Set(k, batch[k][pi])
				}
				r.SetInput(n.Gates[g].Out, v)
			}
			for fi, g := range ffs {
				v := logic.PVAllX
				for k := range stateBatch {
					v = v.Set(k, stateBatch[k][fi])
				}
				r.SetInput(n.Gates[g].Out, v)
			}
		}
		setInputs()
		r.EvalComb()
		for i, p := range obsPts {
			goodObs[i] = r.ObsVal(p)
		}
		for net := range good {
			good[net] = r.NetVal(netlist.NetID(net))
		}
		for _, fid := range faults {
			if detected.Has(fid) {
				continue
			}
			f := u.FaultOf(fid)
			sites := sm.ExpandSite(f.Site)
			active := false
			for _, site := range sites {
				v := good[u.NetOf(site)]
				active = active || (f.SA == logic.Zero && v.L1 != 0) || (f.SA == logic.One && v.L0 != 0)
			}
			setInputs()
			for _, site := range sites {
				r.AddInjection(sim.Injection{Site: site, SA: f.SA, Mask: ^uint64(0)})
			}
			r.EvalComb()
			hit := false
			for i, p := range obsPts {
				hit = hit || goodObs[i].Diff(r.ObsVal(p)) != 0
			}
			r.ClearInjections()
			switch {
			case hit && !active:
				t.Errorf("%s is detected but no site is activated", u.Describe(f))
			case active:
				c.evals++
			default:
				c.screened++
			}
			if hit {
				detected.Add(fid)
			}
		}
	}
	return detected, c
}

// mostlyKnown draws count values from 0, 1 and X, four in five known.
func mostlyKnown(rng *rand.Rand, count int) sim.Pattern {
	vals := []logic.V{logic.Zero, logic.One, logic.Zero, logic.One, logic.X}
	p := make(sim.Pattern, count)
	for i := range p {
		p[i] = vals[rng.Intn(len(vals))]
	}
	return p
}

// sparsePattern draws count values, known of them 0 or 1 and the rest X.
func sparsePattern(rng *rand.Rand, count, known int) sim.Pattern {
	p := make(sim.Pattern, count)
	for i := range p {
		p[i] = logic.X
	}
	for _, i := range rng.Perm(count)[:known] {
		p[i] = logic.V(rng.Intn(2))
	}
	return p
}

// graderCase grades with one grader and the reference and compares the
// detected sets and the screen counters.
type graderCase struct {
	t      *testing.T
	n      *netlist.Netlist
	u      *fault.Universe
	obsPts []sim.ObsPoint
	sm     *fault.SiteMap
	totals *refCounts
}

func (c graderCase) newGrader() (*sim.Grader, *obs.Registry) {
	c.t.Helper()
	gr, err := sim.NewGraderSites(c.n, c.u, c.obsPts, c.sm)
	if err != nil {
		c.t.Fatal(err)
	}
	reg := obs.New()
	gr.Instrument(reg)
	return gr, reg
}

// checkCounts compares a grader's screen counters with the reference's
// forward screen.
func (c graderCase) checkCounts(what string, reg *obs.Registry, want refCounts) {
	c.t.Helper()
	s := reg.Snapshot()
	if got := s.Counter("sim.grade.fault_evals"); got != want.evals {
		c.t.Errorf("%s: sim.grade.fault_evals = %d, reference evaluates %d", what, got, want.evals)
	}
	if got := s.Counter("sim.grade.screened"); got != want.screened {
		c.t.Errorf("%s: sim.grade.screened = %d, reference screens %d", what, got, want.screened)
	}
	c.totals.add(want)
}

// dense grades one pattern set in a single call.
func (c graderCase) dense(what string, gr *sim.Grader, reg *obs.Registry, patterns, states []sim.Pattern) {
	c.t.Helper()
	faults := allFaults(c.u)
	got := gr.Grade(patterns, states, faults)
	want, counts := referenceGrade(c.t, c.n, c.u, c.obsPts, c.sm, patterns, states, faults)
	diffSets(c.t, what, c.u, got, want)
	c.checkCounts(what, reg, counts)
}

// sparse grades single patterns whose inputs and state are at least 70% X,
// one call each, dropping every detected fault from the list between calls
// (the eager generate-then-drop shape). It returns how many faults were
// detected.
func (c graderCase) sparse(what string, rng *rand.Rand, gr *sim.Grader, reg *obs.Registry, calls int) int {
	c.t.Helper()
	nPI, nFF := len(c.n.PrimaryInputs()), len(c.n.FlipFlops())
	known := (nPI + nFF) * 3 / 10
	live := allFaults(c.u)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	var counts refCounts
	hits := 0
	for call := 0; call < calls; call++ {
		p := sparsePattern(rng, nPI+nFF, rng.Intn(known+1))
		patterns, states := []sim.Pattern{p[:nPI]}, []sim.Pattern{p[nPI:]}
		got := gr.Grade(patterns, states, live)
		want, cc := referenceGrade(c.t, c.n, c.u, c.obsPts, c.sm, patterns, states, live)
		diffSets(c.t, fmt.Sprintf("%s call %d", what, call), c.u, got, want)
		counts.add(cc)
		hits += got.Count()
		live = slices.DeleteFunc(live, got.Has)
	}
	c.checkCounts(what, reg, counts)
	return hits
}

// TestGraderMatchesFullEvalReference is the grader's equivalence pin: on
// seeded random netlists, under both observation modes, with and without a
// random site map, the compiled, screened and cone-scheduled grader detects
// exactly the faults a full per-fault re-evaluation of the netlist walk
// detects, and its sim.grade.fault_evals and sim.grade.screened equal the
// forward activation screen counted in the reference. It grades three
// shapes: mostly-known 100-pattern sets with and without driven state;
// single patterns at least 70% X graded one call at a time against a
// shrinking list, the eager generate-then-drop shape; and, on an unrolled
// clone, a grader extended over an Unroller.Extend beside a fresh one built
// on the extended netlist.
func TestGraderMatchesFullEvalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var totals refCounts
	sparseHits := 0
	for seed := int64(1); seed <= 8; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 20, FFs: 3, Outputs: 3})
		u := fault.NewUniverse(n)
		nPI, nFF := len(n.PrimaryInputs()), len(n.FlipFlops())
		patterns := make([]sim.Pattern, 100)
		states := make([]sim.Pattern, len(patterns))
		for k := range patterns {
			patterns[k] = mostlyKnown(rng, nPI)
			states[k] = mostlyKnown(rng, nFF)
		}
		for _, obsPts := range [][]sim.ObsPoint{sim.CombObsPoints(n), sim.OutputObsPoints(n)} {
			for _, sm := range []*fault.SiteMap{nil, randomSiteMap(rng, n)} {
				c := graderCase{t: t, n: n, u: u, obsPts: obsPts, sm: sm, totals: &totals}
				what := fmt.Sprintf("seed %d obs=%d sites=%d", seed, len(obsPts), sm.Len())
				for _, st := range [][]sim.Pattern{nil, states} {
					gr, reg := c.newGrader()
					c.dense(fmt.Sprintf("%s state=%v", what, st != nil), gr, reg, patterns, st)
				}
				gr, reg := c.newGrader()
				sparseHits += c.sparse(what+" sparse", rng, gr, reg, 30)
			}
		}

		// An unrolled clone graded at 2 frames, extended to 3, and graded
		// again beside a grader built fresh at 3 frames.
		clone := n.Clone()
		sm := fault.NewSiteMap()
		ur, err := constraint.NewUnroller(clone, sm, constraint.Unroll{Frames: 2})
		if err != nil {
			t.Fatal(err)
		}
		c := graderCase{t: t, n: clone, u: fault.NewUniverse(clone),
			obsPts: constraint.ObserveOutputsAndCaptures(clone), sm: sm, totals: &totals}
		cloneSet := func() []sim.Pattern {
			ps := make([]sim.Pattern, 70)
			for k := range ps {
				ps[k] = mostlyKnown(rng, len(clone.PrimaryInputs()))
			}
			return ps
		}
		what := fmt.Sprintf("seed %d unrolled", seed)
		ext, reg := c.newGrader()
		c.dense(what+" k=2", ext, reg, cloneSet(), nil)
		if err := ur.Extend(); err != nil {
			t.Fatal(err)
		}
		order, _ := ur.AnnotationOrder()
		if err := ext.Extend(order); err != nil {
			t.Fatal(err)
		}
		fresh, freshReg := c.newGrader()
		reg = obs.New()
		ext.Instrument(reg)
		ps := cloneSet()
		c.dense(what+" k=3 extended", ext, reg, ps, nil)
		c.dense(what+" k=3 fresh", fresh, freshReg, ps, nil)
		reg = obs.New()
		ext.Instrument(reg)
		sparseHits += c.sparse(what+" k=3 extended sparse", rng, ext, reg, 20)
	}
	if totals.evals == 0 || totals.screened == 0 || sparseHits == 0 {
		t.Fatalf("degenerate: %d evaluated, %d screened, %d single-pattern detections",
			totals.evals, totals.screened, sparseHits)
	}
	t.Logf("%d evaluated, %d screened, %d single-pattern detections", totals.evals, totals.screened, sparseHits)
}

// TestGradeIntoDoesNotAllocate pins the drop loop's allocation contract:
// once a grader's scratch has grown, grading one pattern into a reused set
// against a live list allocates nothing.
func TestGradeIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := testutil.RandomNetlist(3, testutil.RandOpts{Inputs: 6, Gates: 60, FFs: 4, Outputs: 3})
	u := fault.NewUniverse(n)
	gr, err := sim.NewGraderSites(n, u, nil, randomSiteMap(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	gr.Instrument(obs.New())
	patterns := []sim.Pattern{mostlyKnown(rng, len(n.PrimaryInputs()))}
	states := []sim.Pattern{mostlyKnown(rng, len(n.FlipFlops()))}
	live := allFaults(u)
	dst := fault.NewSet(u)
	grade := func() {
		dst.Clear()
		gr.GradeInto(dst, patterns, states, live)
	}
	grade()
	if dst.Count() == 0 {
		t.Fatal("the pattern detects nothing")
	}
	if a := testing.AllocsPerRun(20, grade); a != 0 {
		t.Errorf("GradeInto allocates %v times per call after warm-up, want 0", a)
	}
}

// BenchmarkGradeReplayUnrolled measures the replay word a scenario's
// GenerateAll grades before any search: 64 seeded, fully specified rows
// against every collapse representative of the bench design's mission-reach
// clone (two unrolled frames, observed at its outputs and capture probes),
// at widths 8 and 32. Every net of a completed row is definite, so few
// classes are screened and the cone evaluations set the cost. It reports the
// classes graded and the classes the word detects.
func BenchmarkGradeReplayUnrolled(b *testing.B) {
	for _, width := range []int{8, 32} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			n := bench.Build(width)
			sm, err := constraint.ApplyMapped(n, bench.Scenarios(2)[2].Transforms...) // mission-reach
			if err != nil {
				b.Fatal(err)
			}
			u := fault.NewUniverse(n)
			collapse := fault.NewCollapse(u)
			var reps []fault.FID
			for id := 0; id < u.NumFaults(); id++ {
				if fid := fault.FID(id); collapse.Rep(fid) == fid {
					reps = append(reps, fid)
				}
			}
			gr, err := sim.NewGraderSites(n, u, constraint.ObserveOutputsAndCaptures(n), sm)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(width)))
			patterns := make([]sim.Pattern, logic.WordBits)
			for i := range patterns {
				patterns[i] = make(sim.Pattern, len(n.PrimaryInputs()))
				for j := range patterns[i] {
					patterns[i][j] = logic.FromBit(rng.Uint64())
				}
			}
			dst := fault.NewSet(u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Clear()
				gr.GradeInto(dst, patterns, nil, reps)
			}
			b.ReportMetric(float64(len(reps)), "classes")
			b.ReportMetric(float64(dst.Count()), "detected")
		})
	}
}
