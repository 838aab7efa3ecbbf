package flow

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
)

// classesIn lists the representatives of collapse, skipping those cum holds
// Untestable (a nil cum skips none), as the set of classes a scenario depth
// hands GenerateAll, which orders them itself. The depth sweep passes its
// cumulative map and recomputes the collapse per depth: appended frames grow
// fanout on frame-invariant nets, which only refines the partition, so every
// member of a skipped representative's former class is itself already
// proven untestable.
func classesIn(collapse *fault.Collapse, u *fault.Universe, cum *fault.StatusMap) []fault.FID {
	classes := []fault.FID{}
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if collapse.Rep(fid) == fid && (cum == nil || cum.Get(fid) != fault.Untestable) {
			classes = append(classes, fid)
		}
	}
	return classes
}

// deltaChunk is how many evidence entries a streaming provider buffers
// before emitting a delta. Small enough that merged progress is visibly
// incremental, large enough that merge-lock traffic stays negligible.
const deltaChunk = 256

// emitter numbers and flushes one source's delta stream.
type emitter struct {
	source string
	seq    int
	emit   EmitFn
	fids   []fault.FID
	sts    []fault.Status
}

func newEmitter(source string, emit EmitFn) *emitter {
	return &emitter{source: source, emit: emit}
}

// add buffers one evidence entry, flushing a full chunk.
func (e *emitter) add(fid fault.FID, st fault.Status) error {
	e.fids = append(e.fids, fid)
	e.sts = append(e.sts, st)
	if len(e.fids) >= deltaChunk {
		return e.flush()
	}
	return nil
}

// flush emits the buffered entries (a no-op when empty).
func (e *emitter) flush() error {
	if len(e.fids) == 0 {
		return nil
	}
	d := fault.Delta{Source: e.source, Seq: e.seq, FIDs: e.fids, Statuses: e.sts}
	e.seq++
	e.fids, e.sts = nil, nil
	return e.emit(d)
}

// statusDelta streams every non-Undetected entry of m through the emitter.
func (e *emitter) statusDelta(m *fault.StatusMap) error {
	for id := 0; id < m.Len(); id++ {
		st := m.Get(fault.FID(id))
		if st == fault.Undetected {
			continue
		}
		if err := e.add(fault.FID(id), st); err != nil {
			return err
		}
	}
	return e.flush()
}

// baselineTests hands the full-scan baseline's emitted test set to the ATPG
// scenario providers of one RunCampaign, which replay it on their clones
// before any search (the warm start). The baseline publishes its Outcome as
// soon as its run succeeds, and the campaign releases it once its Run
// returns or the journal lets it skip, so a baseline that was restored,
// failed or was cancelled hands over no tests and the scenarios run cold
// instead of blocking. A nil *baselineTests hands over nothing at once.
type baselineTests struct {
	once  sync.Once
	ready chan struct{}
	out   *atpg.Outcome
}

func newBaselineTests() *baselineTests {
	return &baselineTests{ready: make(chan struct{})}
}

// publish hands out over (nil: no tests); only the first call counts.
func (b *baselineTests) publish(out *atpg.Outcome) {
	if b == nil {
		return
	}
	b.once.Do(func() {
		b.out = out
		close(b.ready)
	})
}

// replay waits for the baseline and lifts its tests onto clone as a
// GenerateAll replay (atpg.LiftTests: every added input and state bit
// completed, in fresh rows, since other providers read the same rows). It
// returns nil when the baseline handed over no tests.
func (b *baselineTests) replay(ctx context.Context, clone *netlist.Netlist) (*atpg.Replay, error) {
	if b == nil {
		return nil, nil
	}
	select {
	case <-b.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if b.out == nil || len(b.out.Patterns) == 0 {
		return nil, nil
	}
	pats, states := atpg.LiftTests(b.out.Patterns, b.out.States,
		len(clone.PrimaryInputs()), len(clone.FlipFlops()))
	return &atpg.Replay{Patterns: pats, States: states}, nil
}

// recordReplay counts one run's replay on the prefix+".patterns" and
// prefix+".dropped" counters and the prefix+".grade_ns" histogram:
// "flow.warm" for the baseline's tests, "flow.sweep.replay" for a sweep
// depth's replay of the tests the depth before it emitted.
func recordReplay(reg *obs.Registry, prefix string, st atpg.Stats) {
	reg.Counter(prefix + ".patterns").Add(int64(st.ReplayPatterns))
	reg.Counter(prefix + ".dropped").Add(int64(st.Replayed))
	reg.Histogram(prefix + ".grade_ns").Observe(st.ReplayElapsed.Nanoseconds())
}

// BaselineProvider runs full-scan ATPG over every collapsed class of the
// original netlist and streams every verdict into the full-scan channel.
type BaselineProvider struct {
	// Outcome holds the full ATPG result after a successful Run: the
	// emitted test set and stats, with Status spread over every class.
	Outcome *atpg.Outcome
	// tests, set by RunCampaign, hands the emitted test set to the
	// scenario providers.
	tests *baselineTests
}

// Name implements Provider.
func (p *BaselineProvider) Name() string { return "full-scan" }

// Channel implements Provider.
func (p *BaselineProvider) Channel() Channel { return ChannelFullScan }

// Run implements Provider: class verdicts stream as they commit, and a
// final delta carries the class-spread map (re-announcing representatives
// is harmless — the lattice join is idempotent).
func (p *BaselineProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	em := newEmitter(p.Name(), emit)
	var emitErr error
	opts := env.ATPG
	opts.Progress = func(fid fault.FID, v atpg.Verdict) {
		if emitErr == nil {
			emitErr = em.add(fid, verdictStatus(v))
		}
	}
	out, err := atpg.GenerateAll(ctx, env.N, env.Universe, opts)
	if err != nil {
		return err
	}
	p.tests.publish(out)
	if emitErr != nil {
		return emitErr
	}
	if err := em.flush(); err != nil {
		return err
	}
	if err := em.statusDelta(out.Status); err != nil {
		return err
	}
	p.Outcome = out
	return nil
}

// release implements releaser: a baseline that published nothing hands
// over no tests.
func (p *BaselineProvider) release() { p.tests.publish(nil) }

// verdictStatus maps an engine verdict onto the fault status lattice.
func verdictStatus(v atpg.Verdict) fault.Status {
	switch v {
	case atpg.Detected:
		return fault.Detected
	case atpg.Untestable:
		return fault.Untestable
	}
	return fault.Aborted
}

// ScenarioProvider proves mission-mode untestability on one constrained
// clone: it applies the scenario's transform stack, runs ATPG under the
// scenario's observation selection, and streams the Untestable verdicts —
// projected back onto the original universe — into the mission channel.
// Detected-under-scenario verdicts stay in the provider's ScenarioResult:
// they are claims about the scenario's own observability, not mission
// evidence the lattice may hold against other scenarios.
//
// With MaxFrames set, the scenario runs as an adaptive depth sweep on one
// incrementally extended clone preparation: the scenario's trailing
// constraint.Unroll sets the starting depth, and after each depth the clone
// is Extended from k to k+1 frames in place (constraint.Unroller), the
// annotations updated append-aware (netlist.AnnotateAppended), and the next
// depth targets every class not yet proven untestable. Deepening an unroll
// only tightens the reach over-approximation — every (k+1)-frame faulty
// behavior is reproducible at k frames by choosing the free initial state —
// so untestability proofs persist across depths, dropping them is sound,
// and the projected untestable set grows monotonically toward the converged
// classification. Each depth streams its newly proven verdicts as its own
// delta source ("sweep:<name>@k=<frames>"), so the merged accumulator
// attributes every fault to the depth that proved it. The sweep stops when
// a depth adds nothing to the projected set (the set is stable across two
// consecutive depths) or when MaxFrames is reached; the converged Result is
// equivalent to a one-shot run at the final depth (absent aborts), with
// per-depth stats in Result.Sweep. Without MaxFrames the scenario runs
// once, at the depth its transforms give it.
//
// Before any search, the first depth replays the full-scan baseline's tests,
// lifted onto the clone (when RunCampaign wires the provider to a baseline
// that hands them over), and every later depth replays the tests the depth
// before it emitted, lifted onto the deeper clone (atpg.LiftTests fills the
// appended frame's inputs). The classes they detect are simulation drops,
// and the 64-row words that dropped one lead the depth's test set, so the
// set still detects every class the depth calls Detected. Clone preparation
// overlaps the baseline; only the replay and the search wait for it.
//
// Untestable verdicts enter the mission lattice only for faults whose site
// net is still read in the constrained clone. Verdicts on rewired stems —
// the constraint package's stem-attribution convention marks a driver pin
// disconnected by Tie/OneHot untestable from the configuration's viewpoint —
// still reach the classification through ScenarioResult.Projected, but they
// are statements about circuit membership, not about mission behavior: a
// graded stimulus drives the original circuit, where such a stem is live
// (e.g. a one-hot op bit), so holding those verdicts against pattern
// detections would manufacture conflicts out of the modeling convention.
type ScenarioProvider struct {
	Scenario Scenario
	// MaxFrames, when nonzero, sweeps the scenario up to this depth budget:
	// its transform stack must end in a constraint.Unroll, whose Frames is
	// the starting depth and at most MaxFrames.
	MaxFrames int
	// OnDepth, when non-nil, observes every completed depth of a sweep
	// synchronously on the provider's goroutine; a non-nil return fails the
	// provider.
	OnDepth func(SweepDepth) error
	// Result holds everything proven on the clone after a successful Run:
	// for a sweep, the clone state at the final depth, the cumulative
	// outcome and projection, and Result.Sweep.
	Result *ScenarioResult
	// baseline, set by RunCampaign, hands over the full-scan baseline's
	// tests, which the first depth replays before any search.
	baseline *baselineTests
}

// Name implements Provider.
func (p *ScenarioProvider) Name() string {
	if p.MaxFrames > 0 {
		return "sweep:" + p.Scenario.Name
	}
	return "scenario:" + p.Scenario.Name
}

// Channel implements Provider.
func (p *ScenarioProvider) Channel() Channel { return ChannelMission }

// Run implements Provider.
func (p *ScenarioProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	if err := ctx.Err(); err != nil {
		return err // don't pay for the clone when already cancelled
	}
	// Clone preparation: the constrained clone, its universe and site map,
	// observation points, annotations and drop grader. Its cost lands in a
	// "prep" child span and one "flow.prep_ns" sample. Preparation overlaps
	// the baseline; only the replay and the search below wait for its tests.
	prepStart := time.Now()
	prepSpan := env.Span.Child("prep")
	endPrep := func(err error) error {
		env.Metrics.Histogram("flow.prep_ns").ObserveSince(prepStart)
		if err != nil {
			prepSpan.SetAttr("err", err.Error())
		}
		prepSpan.End()
		return err
	}
	clone := env.N.Clone()
	// ur is the sweep's handle on the clone's depth: non-nil exactly when
	// the stack ends in an Unroll.
	ur, sm, err := constraint.Apply(clone, p.Scenario.Transforms...)
	if err == nil && p.MaxFrames > 0 {
		switch {
		case ur == nil:
			err = fmt.Errorf("scenario's transform stack must end in an Unroll to sweep")
		case p.MaxFrames < ur.Frames():
			err = fmt.Errorf("max frames %d below the scenario's %d starting frames",
				p.MaxFrames, ur.Frames())
		default:
			ur.Instrument(env.Metrics)
		}
	}
	if err != nil {
		return endPrep(err)
	}
	// One universe serves every depth: appended frame copies are synthetic
	// and contribute no sites, and extension never touches an original
	// gate's pins, so the enumeration at the starting depth stays valid —
	// which is exactly what makes verdicts comparable across depths.
	cu := fault.NewUniverse(clone)
	obsFn := p.Scenario.Observe
	if obsFn == nil {
		obsFn = constraint.ObserveFullScan
	}
	// The observation set is depth-invariant: primary outputs and capture
	// probes live in the final frame, which extension re-splices but never
	// rebuilds.
	obsPts := obsFn(clone)
	if len(obsPts) == 0 {
		return endPrep(fmt.Errorf("observation selection returned no points"))
	}
	ann, err := clone.Annotate()
	if err != nil {
		return endPrep(err)
	}
	// One grader serves every replay and GenerateAll's fault dropping at
	// every depth: its simulator, shared propagation graph and observation
	// CSRs extend in place after each Unroller.Extend (Grader.Extend). An
	// empty site map is the nil (single-site) semantics, and the shared
	// pointer sees replica growth as frames append.
	grader, err := sim.NewGraderSites(clone, cu, obsPts, sm)
	if err != nil {
		return endPrep(err)
	}
	grader.Instrument(env.Metrics)
	endPrep(nil)

	// missionLive: the fault's site net still has readers on the clone, so
	// the verdict is about mission behavior rather than a disconnected pin.
	missionLive := func(fid fault.FID) bool {
		f := cu.FaultOf(fid)
		return len(clone.Nets[cu.NetOf(f.Site)].Fanout) > 0
	}

	var (
		last     *atpg.Outcome    // the latest depth's outcome
		cum      *fault.StatusMap // a sweep's cumulative classification
		work     atpg.Stats       // a sweep's work counters, summed over depths
		sweep    *SweepResult
		targeted map[fault.FID]bool // classes some depth of a sweep targeted
	)
	if p.MaxFrames > 0 {
		cum = fault.NewStatusMap(cu)
		sweep = &SweepResult{}
		targeted = map[fault.FID]bool{}
	}
	cumProjected := 0
	for {
		depthStart := time.Now()
		source := p.Name()
		var dspan *obs.Span
		if sweep != nil {
			source = fmt.Sprintf("%s@k=%d", source, ur.Frames())
			dspan = env.Span.Child(fmt.Sprintf("depth:k=%d", ur.Frames()))
		}
		// The depth's targets: every class not yet proven untestable at a
		// shallower depth.
		classes := classesIn(fault.NewCollapse(cu), cu, cum)
		if sweep != nil {
			// Re-targeting accounting: every depth re-counts its targets on
			// the atpg.classes counter, but a re-targeted class that is not
			// currently resolved (cum Detected resolves; Untestable never
			// re-targets) was already counted live by the depth that first
			// targeted it — without a correction, progress views computing
			// live = classes - resolved would report it twice.
			// Previously-Detected re-targets self-cancel instead: they
			// re-increment both the classes and the resolution counters.
			retargeted := int64(0)
			for _, c := range classes {
				if targeted[c] && cum.Get(c) != fault.Detected {
					retargeted++
				}
				targeted[c] = true
			}
			env.Metrics.Counter("atpg.classes.retargeted").Add(retargeted)
		}
		em := newEmitter(source, emit)
		var emitErr error
		opts := env.ATPG
		opts.ObsPoints = obsPts
		// Multi-frame injection: on an unrolled clone the permanent fault is
		// injected in every time frame at once, so the streamed Untestable
		// proofs are about the permanent fault.
		opts.Sites = sm
		opts.Annotations = ann
		opts.Grader = grader
		opts.Classes = classes
		// Warm start: before any search, GenerateAll replays a test set
		// against the depth's classes, and its hits prune the class list the
		// engine drains in hardest-first order. Grading any test on the
		// current-depth machine with the current-depth grader is sound — a
		// definite good-vs-faulty difference holds under every completion by
		// Kleene monotonicity — so each hit is a true Detected at this depth;
		// which tests are replayed only moves the hit rate.
		family := "flow.warm"
		if last == nil {
			if opts.Replay, err = p.baseline.replay(ctx, clone); err != nil {
				return err
			}
		} else if len(last.Patterns) > 0 {
			family = "flow.sweep.replay"
			pats, states := atpg.LiftTests(last.Patterns, last.States,
				len(clone.PrimaryInputs()), len(clone.FlipFlops()))
			opts.Replay = &atpg.Replay{Patterns: pats, States: states}
		}
		var replayDetected []fault.FID
		if opts.Replay != nil && p.OnDepth != nil {
			opts.Replay.Hit = func(_, _ int, detected *fault.Set) {
				detected.ForEach(func(fid fault.FID) { replayDetected = append(replayDetected, fid) })
			}
		}
		opts.Progress = func(fid fault.FID, v atpg.Verdict) {
			if emitErr != nil || v != atpg.Untestable || !missionLive(fid) {
				return
			}
			// Per-verdict projection of the clone's representative back onto
			// the original universe; class members follow in the final delta.
			if oid := env.Universe.IDOf(cu.FaultOf(fid)); oid != fault.InvalidFID {
				emitErr = em.add(oid, fault.Untestable)
			}
		}
		out, err := atpg.GenerateAll(ctx, clone, cu, opts)
		if err != nil {
			return err
		}
		if opts.Replay != nil {
			recordReplay(env.Metrics, family, out.Stats)
		}
		if emitErr != nil {
			return emitErr
		}
		if err := em.flush(); err != nil {
			return err
		}
		newProjected := 0
		for id := 0; id < cu.NumFaults(); id++ {
			fid := fault.FID(id)
			st := out.Status.Get(fid)
			if cum != nil {
				// Fold the depth into the cumulative map: untestability
				// proofs persist (deeper depths only tighten the reach
				// constraint), every other verdict is refreshed by the depth
				// that just re-targeted it.
				if st == fault.Undetected || cum.Get(fid) == fault.Untestable {
					continue
				}
				cum.Set(fid, st)
			}
			if st != fault.Untestable || !missionLive(fid) {
				continue
			}
			if oid := env.Universe.IDOf(cu.FaultOf(fid)); oid != fault.InvalidFID {
				newProjected++
				if err := em.add(oid, fault.Untestable); err != nil {
					return err
				}
			}
		}
		if err := em.flush(); err != nil {
			return err
		}
		last = out
		if sweep == nil {
			break
		}

		cumProjected += newProjected
		// Depths re-target every class not yet proven untestable, so class
		// tallies must not be summed across them; only the work counters
		// accumulate here — the classification tallies are derived from the
		// cumulative map after the loop. Depths run sequentially, so elapsed
		// time sums.
		work.SimDropped += out.Stats.SimDropped
		work.Screened += out.Stats.Screened
		work.Backtracks += out.Stats.Backtracks
		work.Decisions += out.Stats.Decisions
		work.Implications += out.Stats.Implications
		work.GateEvals += out.Stats.GateEvals
		work.Elapsed += out.Stats.Elapsed
		work.Replayed += out.Stats.Replayed
		work.ReplayPatterns += out.Stats.ReplayPatterns
		work.ReplayElapsed += out.Stats.ReplayElapsed
		ds := SweepDepthStats{
			Frames:         ur.Frames(),
			Classes:        len(classes),
			NewUntestable:  newProjected,
			CumUntestable:  cumProjected,
			ReplayPatterns: out.Stats.ReplayPatterns,
			ReplayDropped:  out.Stats.Replayed,
			ReplayNS:       out.Stats.ReplayElapsed.Nanoseconds(),
			Stats:          out.Stats,
		}
		sweep.Depths = append(sweep.Depths, ds)
		// One ended child span per depth, mirroring the SweepResult entry —
		// the acceptance check diffs this tree against the convergence table.
		dspan.SetInt("frames", int64(ds.Frames))
		dspan.SetInt("classes", int64(ds.Classes))
		dspan.SetInt("new_untestable", int64(newProjected))
		dspan.SetInt("cum_untestable", int64(cumProjected))
		dspan.SetInt("replay_patterns", int64(ds.ReplayPatterns))
		dspan.SetInt("replay_dropped", int64(ds.ReplayDropped))
		dspan.End()
		env.Metrics.Histogram("flow.sweep.depth_ns").ObserveSince(depthStart)
		if p.OnDepth != nil {
			if err := p.OnDepth(SweepDepth{
				Frames: ds.Frames, Clone: clone, Universe: cu, Sites: sm,
				Obs: obsPts, Status: out.Status, ReplayDetected: replayDetected,
				Stats: ds,
			}); err != nil {
				return fmt.Errorf("depth %d observer: %w", ds.Frames, err)
			}
		}

		// Convergence rule: the projected untestable set is stable across
		// two consecutive depths — the depth that just ran added nothing to
		// what the previous depth had already proven.
		sweep.Converged = len(sweep.Depths) >= 2 && newProjected == 0
		if sweep.Converged || ur.Frames() >= p.MaxFrames {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ur.Extend(); err != nil {
			return err
		}
		if err := clone.Validate(); err != nil {
			return fmt.Errorf("extended clone invalid at %d frames: %w", ur.Frames(), err)
		}
		order, stale := ur.AnnotationOrder()
		if ann, err = clone.AnnotateAppended(ann, order, stale); err != nil {
			return err
		}
		// The grader (simulator, shared graph, observation CSRs) extends in
		// place over the appended suffix instead of rebuilding from the full
		// netlist.
		if err := grader.Extend(order); err != nil {
			return fmt.Errorf("extend grader to %d frames: %w", ur.Frames(), err)
		}
	}

	out := last
	if sweep != nil {
		sweep.FinalFrames = ur.Frames()
		// Every class not proven untestable was re-targeted at the final
		// depth, so the final depth's test set detects every class the
		// cumulative map calls Detected. The converged Stats mirror what a
		// one-shot run at the final depth would report: class tallies over
		// the final depth's collapse with the cumulative statuses (a rep
		// shares its class's status at every refinement level, so indexing
		// cum by rep is exact), plus the work counters summed across depths.
		stats := work
		stats.Faults = cu.NumFaults()
		stats.Patterns = len(last.Patterns)
		finalCollapse := fault.NewCollapse(cu)
		for id := 0; id < cu.NumFaults(); id++ {
			fid := fault.FID(id)
			if finalCollapse.Rep(fid) != fid {
				continue
			}
			stats.Classes++
			switch cum.Get(fid) {
			case fault.Detected:
				stats.Detected++
			case fault.Untestable:
				stats.Untestable++
			case fault.Aborted:
				stats.Aborted++
			}
		}
		out = &atpg.Outcome{Stats: stats, Status: cum, Patterns: last.Patterns, States: last.States}
	}
	p.Result = &ScenarioResult{
		Scenario:  p.Scenario,
		Clone:     clone,
		Universe:  cu,
		Sites:     sm,
		Obs:       obsPts,
		Outcome:   out,
		Projected: fault.Project(cu, out.Status, env.Universe),
		Sweep:     sweep,
	}
	return nil
}

// PatternSet is one externally produced mission stimulus — an instruction
// trace, a bus transaction sequence — to grade against the fault universe.
type PatternSet struct {
	Name string
	Stim sim.Stimulus
	// Observe selects the grading observation points on the original
	// netlist; nil means output-only observation (constraint.ObserveOutputs),
	// the points an on-line checker can actually compare.
	Observe constraint.ObsFn
}

// PatternProvider grades externally supplied mission stimuli with
// sim.GradeSeq and streams the detected faults into the mission channel —
// the ROADMAP's "functional pattern import". It grades one lane per
// structural-equivalence class (see gradedReps) and spreads each
// detection to the class's members, so a set's delta lists every detected
// fault. The grader skips faults no observation point can see, drops each
// fault in the cycle it is detected, regroups the survivors, and retires
// those a local proof shows no cycle of the set can detect once they fit
// one word, so a set's cost tracks the classes it can still detect. A
// malformed set (a row that does not drive every input, or an input listed
// twice) fails the provider with an error naming the set and the cycle or
// input. Because mission detections and scenario untestability proofs
// merge into the same lattice, a stimulus that detects a fault some
// scenario proved functionally untestable fails the campaign with a
// fault.ConflictError: either the scenario transform was unsound or the
// stimulus drives the design outside its mission model.
//
// Each set gets a "set:<name>" span with two attributes: graded, the
// classes graded (one fault each), and detected, the faults its delta
// lists.
type PatternProvider struct {
	// Sets are graded in order, one delta per set.
	Sets []PatternSet
	// Detected is the union of faults any set detected, set after Run.
	Detected *fault.Set
}

// Name implements Provider.
func (p *PatternProvider) Name() string { return "patterns" }

// Channel implements Provider.
func (p *PatternProvider) Channel() Channel { return ChannelMission }

// Run implements Provider. Classes detected by an earlier set are dropped
// from later gradings — re-detection could only re-announce entries the
// lattice already holds, so skipping them changes no merged status, no
// conflict outcome, and no Detected union, while each set's simulation cost
// tracks the shrinking remainder.
func (p *PatternProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	u := env.Universe
	points := make([][]sim.ObsPoint, len(p.Sets))
	for i, set := range p.Sets {
		obsFn := set.Observe
		if obsFn == nil {
			obsFn = constraint.ObserveOutputs
		}
		points[i] = obsFn(env.N)
	}
	rep := gradedReps(env.N, u, points)
	var remaining []fault.FID // the graded fault of every class not yet detected
	for id, r := range rep {
		if r == fault.FID(id) {
			remaining = append(remaining, r)
		}
	}
	detected := fault.NewSet(u)
	for seq, set := range p.Sets {
		if err := ctx.Err(); err != nil {
			return err
		}
		if set.Name == "" {
			return fmt.Errorf("pattern set %d has no name", seq)
		}
		setSpan := env.Span.Child("set:" + set.Name)
		det, err := sim.GradeSeq(
			env.N, u, set.Stim, points[seq], remaining, nil, env.Metrics)
		if err != nil {
			setSpan.End()
			return fmt.Errorf("pattern set %q: %w", set.Name, err)
		}
		d := fault.Delta{Source: p.Name(), Seq: seq}
		for id, r := range rep {
			if det.Has(r) {
				d.FIDs = append(d.FIDs, fault.FID(id))
				d.Statuses = append(d.Statuses, fault.Detected)
				detected.Add(fault.FID(id))
			}
		}
		setSpan.SetInt("graded", int64(len(remaining)))
		setSpan.SetInt("detected", int64(len(d.FIDs)))
		setSpan.End()
		if err := emit(d); err != nil {
			return err
		}
		remaining = slices.DeleteFunc(remaining, det.Has)
	}
	p.Detected = detected
	return nil
}

// gradedReps maps every fault of u to the fault PatternProvider grades for
// it: the representative of its structural-equivalence class
// (fault.NewCollapse). Equivalent faults make identical faulty machines in
// every cycle, and a point that reads a net through a pin only the
// fanout-free stem/branch rule touches (a primary output, a flip-flop pin)
// reads a stem fault and its branch fault alike, so one lane grades the
// whole class. A point on an input pin of a BUF, NOT, AND, NAND, OR or NOR
// gate would not: the collapse merges that pin's fault with the gate's
// output fault, and only the pin fault shows at the pin. With any such
// point among points, every fault is graded alone.
func gradedReps(n *netlist.Netlist, u *fault.Universe, points [][]sim.ObsPoint) []fault.FID {
	rep := make([]fault.FID, u.NumFaults())
	for id := range rep {
		rep[id] = fault.FID(id)
	}
	for _, pts := range points {
		for _, pt := range pts {
			switch n.Gates[pt.Gate].Kind {
			case netlist.KBuf, netlist.KNot, netlist.KAnd, netlist.KNand, netlist.KOr, netlist.KNor:
				return rep
			}
		}
	}
	collapse := fault.NewCollapse(u)
	for id, fid := range rep {
		rep[id] = collapse.Rep(fid)
	}
	return rep
}

var _ Provider = (*BaselineProvider)(nil)
var _ Provider = (*ScenarioProvider)(nil)
var _ Provider = (*PatternProvider)(nil)
