package atpg

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// This file keeps the engine as it was before implication was confined to
// each fault's relevance cone and made event-driven: a full levelized pass
// over every gate on every decision step, a D-frontier scan over the whole
// levelized order, and detection checks at every observation point. The
// functions are verbatim copies under ref names; CheckReference runs every
// fault through both engines and requires identical searches.

// refEngine is the reference engine: an Engine searched through the ref
// functions below, with the full observation set they check.
type refEngine struct {
	*Engine
	obs []sim.ObsPoint
}

// CheckReference targets every fault of u with a fresh engine and with the
// reference engine, both built with opts on n, and fails t unless every
// search agrees on verdict, abort reason, pattern, state, backtracks,
// decisions and implication passes. It returns the number of searches and
// the backtracks they spent.
func CheckReference(t testing.TB, n *netlist.Netlist, u *fault.Universe, opts Options) (searches, backtracks int) {
	t.Helper()
	ann, err := n.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewWithAnnotations(n, ann, opts)
	ref := &refEngine{Engine: NewWithAnnotations(n, ann, opts), obs: opts.ObsPoints}
	if ref.obs == nil {
		ref.obs = sim.CombObsPoints(n)
	}
	mismatches := 0
	for id := 0; id < u.NumFaults(); id++ {
		f := u.FaultOf(fault.FID(id))
		got := eng.Generate(f)
		want := ref.refGenerateInjection(opts.Sites.Expand(f))
		searches++
		backtracks += want.Backtracks
		if d := diffResults(got, want); d != "" {
			t.Errorf("%s: %s", u.Describe(f), d)
			if mismatches++; mismatches == 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
	return searches, backtracks
}

// diffResults describes how a search result differs from the reference's,
// or returns "" when they agree on everything but timing and gate counts.
func diffResults(got, want Result) string {
	switch {
	case got.Verdict != want.Verdict || got.Abort != want.Abort:
		return fmt.Sprintf("verdict %v/%v, reference %v/%v", got.Verdict, got.Abort, want.Verdict, want.Abort)
	case fmt.Sprint(got.Pattern) != fmt.Sprint(want.Pattern) || fmt.Sprint(got.State) != fmt.Sprint(want.State):
		return fmt.Sprintf("pattern %v state %v, reference %v state %v", got.Pattern, got.State, want.Pattern, want.State)
	case got.Backtracks != want.Backtracks || got.Decisions != want.Decisions || got.Implications != want.Implications:
		return fmt.Sprintf("backtracks/decisions/implications %d/%d/%d, reference %d/%d/%d",
			got.Backtracks, got.Decisions, got.Implications,
			want.Backtracks, want.Decisions, want.Implications)
	}
	return ""
}

// TestConeSearchMatchesReference pins the cone-restricted, event-driven
// engine to the full-pass reference, search by search, on seeded random
// sequential netlists under full-scan and output-only observation, and on a
// 3-frame unrolled clone searched through its replica site map. The bench
// design's mission scenarios are pinned the same way in
// reference_bench_test.go.
func TestConeSearchMatchesReference(t *testing.T) {
	var searches, backtracks int
	check := func(n *netlist.Netlist, u *fault.Universe, opts Options) {
		s, b := CheckReference(t, n, u, opts)
		searches += s
		backtracks += b
	}
	for seed := int64(1); seed <= 12; seed++ {
		n := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 6, Gates: 80, FFs: 4, Outputs: 2})
		u := fault.NewUniverse(n)
		check(n, u, Options{ObsPoints: sim.CombObsPoints(n)})
		check(n, u, Options{ObsPoints: sim.OutputObsPoints(n)})
	}
	n := testutil.RandomNetlist(7, testutil.RandOpts{Inputs: 4, Gates: 30, FFs: 3, Outputs: 2})
	clone := n.Clone()
	_, sm, err := constraint.Apply(clone, constraint.Unroll{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	check(clone, fault.NewUniverse(clone), Options{
		Sites:     sm,
		ObsPoints: constraint.ObserveOutputsAndCaptures(clone),
	})
	if backtracks == 0 {
		t.Fatal("no search backtracked: the reference comparison never left the first decision")
	}
	t.Logf("%d searches, %d backtracks matched the reference", searches, backtracks)
}

// refGenerateInjection is the reference search loop: GenerateInjection with
// a full implication pass over every gate on every step and the reference
// versions of every function that pass feeds.
func (e *refEngine) refGenerateInjection(inj fault.Injection) (res Result) {
	if len(inj.Sites) == 0 {
		panic("atpg: injection with no sites")
	}
	if !inj.SA.IsKnown() {
		panic("atpg: injection stuck value must be 0 or 1")
	}
	start := time.Now()
	decisions, implications := 0, 0
	defer func() {
		res.Backtracks = e.backtracks
		res.Decisions = decisions
		res.Implications = implications
		res.Elapsed = time.Since(start)
	}()
	e.setInjection(inj)
	for i := range e.assigns {
		e.assigns[i] = logic.X
	}
	e.stack = e.stack[:0]
	e.backtracks = 0

	e.refImply()
	implications++
	for {
		// A completed detection wins over cancellation: if the implication
		// pass we already paid for reached an observation point, the pattern
		// is earned — returning Aborted(cancel) here would throw it away.
		if e.refDetected() {
			return Result{
				Verdict: Detected,
				Pattern: append(sim.Pattern(nil), e.assigns[:e.numPI]...),
				State:   append(sim.Pattern(nil), e.assigns[e.numPI:]...),
			}
		}
		if e.cancel != nil && e.cancel.Load() {
			return Result{Verdict: Aborted, Abort: AbortCancel}
		}
		advanced := false
		for _, obj := range e.refNextObjectives() {
			idx, v, ok := e.backtrace(obj)
			if !ok {
				continue
			}
			e.assigns[idx] = v
			e.stack = append(e.stack, decision{idx: idx, val: v})
			decisions++
			advanced = true
			break
		}
		if !advanced {
			if !e.backtrack() {
				return Result{Verdict: Untestable}
			}
			if e.backtracks > e.opts.BacktrackLimit {
				return Result{Verdict: Aborted, Abort: AbortLimit}
			}
		}
		// backtrack records the assignables it changed for the event-driven
		// pass; the reference re-implies everything and needs no record.
		e.changed = e.changed[:0]
		e.refImply()
		implications++
	}
}

// refImply settles the whole circuit in the five-valued D-calculus from the
// current input assignments, injecting the target fault at every one of its
// sites. It is a single full levelized pass: implication here is pure forward
// simulation, with all search intelligence in objective selection and
// backtracking. With a multi-site injection the faulty machine carries the
// stuck value at all sites at once — the joint fault — so implication,
// detection and every pruning rule reason about the same machine the grading
// simulators build.
func (e *refEngine) refImply() {
	// Sources: assigned inputs, ties, flip-flop pseudo-inputs.
	for i := range e.n.Gates {
		g := &e.n.Gates[i]
		var v logic.D5
		switch g.Kind {
		case netlist.KTie0:
			v = logic.Zero5
		case netlist.KTie1:
			v = logic.One5
		case netlist.KInput, netlist.KDFF, netlist.KDFFR:
			v = logic.Lift(e.assigns[e.pIdx[g.Out]])
		default:
			continue
		}
		if e.injOut[i] {
			v = v.WithFaulty(e.sa)
		}
		e.val[g.Out] = v
	}
	for _, gid := range e.ann.Order() {
		g := &e.n.Gates[gid]
		if g.Out == netlist.InvalidNet {
			continue
		}
		v := e.evalGate(gid, g)
		if e.injOut[gid] {
			v = v.WithFaulty(e.sa)
		}
		e.val[g.Out] = v
	}
	for i, s := range e.inj.Sites {
		if s.Pin == fault.OutputPin {
			e.siteVals[i] = e.val[e.siteNets[i]]
		} else {
			e.siteVals[i] = e.pinVal(s.Gate, &e.n.Gates[s.Gate], int(s.Pin))
		}
	}
}

// refDetected reports whether a fault effect has reached an observation point.
func (e *refEngine) refDetected() bool {
	for _, p := range e.obs {
		if e.pinVal(p.Gate, &e.n.Gates[p.Gate], int(p.Pin)).IsError() {
			return true
		}
	}
	return false
}

// refNextObjectives derives candidate objectives from the implied circuit
// state, in preference order; an empty slice reports a conflict — the
// current partial assignment provably cannot be extended to a detection of
// the joint injection. Generate assigns the first candidate whose backtrace
// reaches a free input; the later candidates keep the search alive when an
// earlier objective turns out uncontrollable, which matters for multi-site
// injections: failing to drive one replica site must not condemn the others.
//
// Errors (D/D̄) originate only at injection sites — a gate output can carry
// an error only if an input does, or the output itself is a site with an
// activated good value — so the conflict rules stay sound proofs:
//
//   - a site whose good value is known equal to the stuck value can never
//     diverge (implication is monotone: known values are final);
//   - a not-yet-activated site without an X-path to an observation point can
//     diverge, but never detectably;
//   - an effect on a deselected mux data pin (see deselected) never reaches
//     the mux output, so such a pin neither opens a site's path, nor puts
//     the mux on the D-frontier, nor extends an X-path;
//   - once every site is dead or blocked and the D-frontier has no X-path
//     left, no extension of the assignment detects the injection.
func (e *refEngine) refNextObjectives() []objective {
	e.objs = e.objs[:0]
	// Phase 1: no site carries an error yet, hence the faulty machine has
	// not diverged anywhere. The next goal is activating a site: driving its
	// good-machine value to the complement of the stuck value — but only
	// sites with an open propagation path are worth activating (this is
	// what proves faults in unobservable cones, such as a dropped
	// carry-out, untestable in constant time).
	anyErr := false
	for i := range e.siteVals {
		if e.siteVals[i].IsError() {
			anyErr = true
			break
		}
	}
	if !anyErr {
		return e.appendActivations()
	}
	// Phase 2: a fault effect is in flight. Advance the D-frontier.
	e.refComputeFrontier()
	if len(e.dfront) > 0 {
		roots := make([]netlist.NetID, 0, len(e.dfront))
		for _, gid := range e.dfront {
			roots = append(roots, e.n.Gates[gid].Out)
		}
		if e.xPathFrom(roots) {
			for _, gid := range e.dfront {
				if obj, ok := e.gateObjective(gid); ok {
					e.objs = append(e.objs, obj)
					break
				}
			}
			if len(e.objs) == 0 {
				// No frontier gate offers a direct good-machine objective
				// (this arises with composite values such as (0,X), where
				// propagation hinges on the faulty machine alone). Fall back
				// to assigning any free input: the decision tree still
				// covers the full search space, so soundness and
				// completeness are preserved, only heuristic quality drops.
				// Dead (fanout-free) inputs are skipped: they cannot
				// influence any net, so decisions on them would only double
				// the subtree per dead input.
				for i, v := range e.assigns {
					if v == logic.X && !e.deadIn[i] {
						val := logic.Zero
						if e.ann.CC1[e.assignable[i]] < e.ann.CC0[e.assignable[i]] {
							val = logic.One
						}
						e.objs = append(e.objs, objective{net: e.assignable[i], v: val, direct: true})
						break
					}
				}
			}
		}
	}
	// Not-yet-activated sites are alternative error origins: activating one
	// can open a fresh propagation path when the current frontier is blocked
	// or exhausted. For a classical single-site fault no open site remains
	// after activation, so this preserves the original PODEM behavior.
	return e.appendActivations()
}

// refComputeFrontier collects the D-frontier: gates with at least one fault
// effect on an input that is not deselected and an output that can still
// evolve (carries an X component), sorted most-observable first (lowest
// SCOAP CO).
func (e *refEngine) refComputeFrontier() {
	e.dfront = e.dfront[:0]
	for _, gid := range e.ann.Order() {
		g := &e.n.Gates[gid]
		if g.Out == netlist.InvalidNet || !e.val[g.Out].HasX() {
			continue
		}
		for p := range g.Ins {
			if e.pinVal(gid, g, p).IsError() && !e.deselected(gid, g, p) {
				e.dfront = append(e.dfront, gid)
				break
			}
		}
	}
	sort.SliceStable(e.dfront, func(i, j int) bool {
		return e.ann.CO[e.n.Gates[e.dfront[i]].Out] < e.ann.CO[e.n.Gates[e.dfront[j]].Out]
	})
}
