package flow

import (
	"context"
	"fmt"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// SweepDepthStats summarizes one swept depth of a SweepProvider run.
type SweepDepthStats struct {
	// Frames is the clone's total frame count at this depth.
	Frames int
	// Classes is the number of collapsed classes targeted at this depth —
	// classes already proven untestable at a shallower depth are dropped.
	// Replay-dropped classes count here (they were targeted and resolved);
	// the engine searched Classes - ReplayDropped of them.
	Classes int
	// NewUntestable counts the faults newly proven untestable at this depth
	// that project onto the original universe and are mission-live (the
	// deliverable set the convergence rule watches).
	NewUntestable int
	// CumUntestable is the running size of that projected set.
	CumUntestable int
	// ReplayPatterns counts the test rows replayed against this depth's
	// classes before any search: the baseline's tests, lifted onto the
	// clone, at the first depth (0 when the baseline handed over none), the
	// warm-start pool at every later depth.
	ReplayPatterns int
	// ReplayDropped counts the classes the replay proved Detected at this
	// depth, dropping them before the engine dispatched.
	ReplayDropped int
	// ReplayNS is the wall-clock nanoseconds the replay grading took.
	ReplayNS int64
	// Stats is the depth's engine summary, replay drops included as
	// simulation drops.
	Stats atpg.Stats
}

// SweepResult is the per-depth record of one adaptive depth sweep.
type SweepResult struct {
	// Depths holds one entry per depth actually swept, shallow to deep.
	Depths []SweepDepthStats
	// Converged is true when the sweep stopped because the projected
	// untestable set was stable across two consecutive depths, false when it
	// ran into the MaxFrames budget.
	Converged bool
	// FinalFrames is the deepest frame count swept; the converged
	// ScenarioResult's clone, universe and site map are at this depth.
	FinalFrames int
}

// SweepDepth hands a SweepProvider.OnDepth observer the full state of one
// completed depth. Clone, Sites and Universe reference the provider's live
// clone preparation: they are valid during the callback but the clone and
// site map are extended in place afterwards, so observers needing a snapshot
// must take it synchronously (e.g. run an exhaustive oracle before
// returning).
type SweepDepth struct {
	Frames   int
	Clone    *netlist.Netlist
	Universe *fault.Universe
	Sites    *fault.SiteMap
	Obs      []sim.ObsPoint
	// Status is this depth's outcome over Universe (class-spread). It
	// includes the replay's Detected verdicts, so a per-depth oracle
	// re-proves warm-start drops alongside the engine's own results.
	Status *fault.StatusMap
	// ReplayDetected lists the class representatives the replay (the
	// baseline's tests at the first depth, the pool after it) proved
	// Detected at this depth, before any search dispatched. Their classes
	// appear Detected in Status.
	ReplayDetected []fault.FID
	// Stats is the depth's summary, identical to the SweepResult entry.
	Stats SweepDepthStats
}

// SweepProvider runs one unrolled reach scenario at increasing sequential
// depth on a single incrementally extended clone preparation: the scenario's
// trailing constraint.Unroll sets the starting depth, and after each depth
// the clone is Extended from k to k+1 frames in place (constraint.Unroller),
// the annotations updated append-aware (netlist.AnnotateAppended), and the
// next depth targets only the classes not yet proven untestable. Deepening a
// free-init unroll only tightens the reach over-approximation — every
// (k+1)-frame faulty behavior is reproducible at k frames by choosing the
// free initial state — so untestability proofs persist across depths,
// dropping them is sound, and the projected untestable set grows
// monotonically toward the converged classification.
//
// Before any search, the first depth replays the full-scan baseline's tests
// (when RunCampaign wires the provider to a baseline that hands them over)
// and every later depth replays the tests of the depths before it, so the
// engine only searches the classes those tests miss.
//
// Each depth streams its newly proven, projected, mission-live untestability
// verdicts into the mission channel as its own delta source
// ("sweep:<name>@k=<frames>"), so the merged accumulator attributes every
// fault to the depth that proved it. The sweep stops when a depth adds
// nothing to the projected set (the set is stable across two consecutive
// depths) or when MaxFrames is reached; the converged Result is equivalent to
// a one-shot run at the final depth (absent aborts), with per-depth stats in
// Result.Sweep.
type SweepProvider struct {
	// Scenario is the swept scenario; its transform stack must end in a
	// constraint.Unroll, whose Frames is the starting depth.
	Scenario Scenario
	// MaxFrames is the depth budget, >= the starting depth.
	MaxFrames int
	// OnDepth, when non-nil, observes every completed depth synchronously on
	// the provider's goroutine; a non-nil return fails the provider.
	OnDepth func(SweepDepth) error
	// Result holds the converged scenario result (clone state at the final
	// depth, cumulative outcome and projection) with Result.Sweep filled in.
	Result *ScenarioResult
	// baseline, set by RunCampaign, hands over the full-scan baseline's
	// tests, which the first depth replays before any search.
	baseline *baselineTests
}

// Name implements Provider.
func (p *SweepProvider) Name() string { return "sweep:" + p.Scenario.Name }

// Channel implements Provider.
func (p *SweepProvider) Channel() Channel { return ChannelMission }

// sweepableUnroll returns the trailing constraint.Unroll of a scenario's
// transform stack when the scenario can be swept — the shape RunCampaign
// sweeps under MaxFrames. Reset-anchored unrolls are NOT sweepable: with
// ResetInit, depth k models exactly the first k cycles after reset, so a
// fault undetectable within k cycles may become detectable at k+1 —
// untestability does not persist across depths and dropping resolved classes
// (the sweep's core amortization) would be unsound. Only the free-init form
// has the monotone tightening the sweep relies on.
func sweepableUnroll(sc Scenario) (constraint.Unroll, bool) {
	if len(sc.Transforms) == 0 {
		return constraint.Unroll{}, false
	}
	u, ok := sc.Transforms[len(sc.Transforms)-1].(constraint.Unroll)
	return u, ok && !u.ResetInit
}

// sweepPatternPoolCap bounds the cross-depth replay pool: the pool keeps at
// most this many distinct patterns, evicting the lowest-yield (then oldest)
// entry when a new one arrives — so the warm start's grading cost per depth
// is bounded no matter how many depths the sweep runs or how many patterns
// each emits.
const sweepPatternPoolCap = 512

// patternPool is the depth sweep's warm-start test set: the deduplicated,
// yield-ranked union of the patterns every swept depth emitted, the baseline
// tests whose replay dropped a class at the first depth included. Rows are
// stored at the width they were generated at and lifted in place — padded
// with trailing X over the appended frame's free inputs — when a deeper
// depth replays them; Netlist.PrimaryInputs is gate-ID-ordered and extension
// only appends gates, so a depth-k pattern row is always a strict prefix of
// its depth-(k+1) lift.
type patternPool struct {
	pats   []sim.Pattern
	states []sim.Pattern
	hits   []int          // per pattern: faults credited to its replay word
	seen   map[string]int // trailing-X-trimmed row key -> index
}

func newPatternPool() *patternPool {
	return &patternPool{seen: map[string]int{}}
}

func (pp *patternPool) size() int { return len(pp.pats) }

// key builds the width-invariant identity of a stimulus row pair: trailing X
// values are trimmed (an X-padded lift is the same stimulus), and 0xFF —
// not a logic.V encoding — separates the pattern from the state row.
func (pp *patternPool) key(p, s sim.Pattern) string {
	buf := make([]byte, 0, len(p)+len(s)+1)
	buf = appendTrimmed(buf, p)
	buf = append(buf, 0xFF)
	buf = appendTrimmed(buf, s)
	return string(buf)
}

func appendTrimmed(buf []byte, p sim.Pattern) []byte {
	end := len(p)
	for end > 0 && p[end-1] == logic.X {
		end--
	}
	for _, v := range p[:end] {
		buf = append(buf, byte(v))
	}
	return buf
}

// add inserts a pattern/state row pair, deduplicating against every resident
// row and evicting the lowest-hits (ties: oldest) entry at capacity.
func (pp *patternPool) add(p, s sim.Pattern) {
	k := pp.key(p, s)
	if _, ok := pp.seen[k]; ok {
		return
	}
	if len(pp.pats) < sweepPatternPoolCap {
		pp.seen[k] = len(pp.pats)
		pp.pats = append(pp.pats, p)
		pp.states = append(pp.states, s)
		pp.hits = append(pp.hits, 0)
		return
	}
	evict := 0
	for i := 1; i < len(pp.hits); i++ {
		if pp.hits[i] < pp.hits[evict] {
			evict = i
		}
	}
	delete(pp.seen, pp.key(pp.pats[evict], pp.states[evict]))
	pp.seen[k] = evict
	pp.pats[evict] = p
	pp.states[evict] = s
	pp.hits[evict] = 0
}

// lift pads every resident row in place with trailing X up to the given
// widths — the appended frame's free inputs unassigned. Padding never
// changes a row's dedup key.
func (pp *patternPool) lift(npis, nffs int) {
	for i := range pp.pats {
		for len(pp.pats[i]) < npis {
			pp.pats[i] = append(pp.pats[i], logic.X)
		}
		for len(pp.states[i]) < nffs {
			pp.states[i] = append(pp.states[i], logic.X)
		}
	}
}

// credit adds a replay word's detections to every pattern in it — yield is
// tracked at word granularity because grading is word-parallel.
func (pp *patternPool) credit(lo, hi, detections int) {
	for i := lo; i < hi; i++ {
		pp.hits[i] += detections
	}
}

// Run implements Provider.
func (p *SweepProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	if err := ctx.Err(); err != nil {
		return err // don't pay for the clone when already cancelled
	}
	if _, ok := sweepableUnroll(p.Scenario); !ok {
		return fmt.Errorf("scenario's transform stack must end in a free-init Unroll " +
			"(reset-anchored untestability does not persist across depths)")
	}
	clone := env.N.Clone()
	ur, sm, err := constraint.BuildUnroller(clone, p.Scenario.Transforms)
	if err != nil {
		return err
	}
	ur.Instrument(env.Metrics)
	if p.MaxFrames < ur.Frames() {
		return fmt.Errorf("max frames %d below the scenario's %d starting frames",
			p.MaxFrames, ur.Frames())
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
	obs := obsFn(clone)
	if len(obs) == 0 {
		return fmt.Errorf("observation selection returned no points")
	}
	ann, err := clone.Annotate()
	if err != nil {
		return err
	}
	// One warm grader serves every depth: its simulator, shared propagation
	// graph and observation CSRs extend in place after each Unroller.Extend
	// (Grader.Extend) instead of being rebuilt from scratch, and GenerateAll
	// reuses the same instance for coordinator-side fault dropping via
	// Options.Grader. An empty site map is the nil (single-site) semantics,
	// and the shared pointer sees replica growth as frames append.
	grader, err := sim.NewGraderSites(clone, cu, obs, sm)
	if err != nil {
		return err
	}
	grader.Instrument(env.Metrics)
	var learn *atpg.Learning
	if !env.ATPG.NoLearn {
		// Learned facts live on the grader's shared graph: built once here,
		// then extended incrementally per depth (Learning.Extend) — only the
		// appended frame and the re-spliced state-chain cone recompute.
		learn = atpg.BuildLearningOn(clone, grader.Graph(), env.Metrics)
	}

	// missionLive: the fault's site net still has readers on the clone, so
	// the verdict is about mission behavior rather than a disconnected pin.
	missionLive := func(fid fault.FID) bool {
		f := cu.FaultOf(fid)
		return len(clone.Nets[cu.NetOf(f.Site)].Fanout) > 0
	}

	cum := fault.NewStatusMap(cu)
	sweep := &SweepResult{}
	pool := newPatternPool()
	var (
		work         atpg.Stats // summed per-depth work counters
		cumProjected int
	)
	hDepth := env.Metrics.Histogram("flow.sweep.depth_ns")
	// Re-targeting accounting: every depth re-counts its targets on the
	// atpg.classes counter, but a re-targeted class that is not currently
	// resolved (cum Detected resolves; Untestable never re-targets) was
	// already counted live by the depth that first targeted it — without a
	// correction, progress views computing live = classes - resolved would
	// report it twice. Previously-Detected re-targets self-cancel instead:
	// they re-increment both the classes and the resolution counters.
	mRetarget := env.Metrics.Counter("atpg.classes.retargeted")
	targeted := map[fault.FID]bool{}
	for {
		depth := ur.Frames()
		depthStart := time.Now()
		dspan := env.Span.Child(fmt.Sprintf("depth:k=%d", depth))
		// The depth's targets: every class not yet proven untestable at a
		// shallower depth, hardest-first.
		classes := hardestFirst(cu, ann, classesIn(fault.NewCollapse(cu), cu, cum))
		retargeted := int64(0)
		for _, c := range classes {
			if targeted[c] && cum.Get(c) != fault.Detected {
				retargeted++
			}
			targeted[c] = true
		}
		mRetarget.Add(retargeted)
		em := newEmitter(fmt.Sprintf("%s@k=%d", p.Name(), depth), emit)
		var emitErr error
		opts := env.ATPG
		opts.ObsPoints = obs
		if !sm.Empty() {
			opts.Sites = sm
		}
		opts.Annotations = ann
		opts.Learn = learn
		opts.Grader = grader
		opts.Classes = classes
		// Warm start: before any search, GenerateAll replays a test set
		// against the depth's classes, and its hits prune the class list
		// the engine drains in hardest-first order. The first depth replays
		// the baseline's tests, lifted onto the clone; every later depth
		// replays the pool, lifted in place (the appended frame's free
		// inputs at X). Grading any test on the current-depth machine with
		// the current-depth grader is sound — a definite good-vs-faulty
		// difference under a partial assignment holds under every
		// completion by Kleene monotonicity — so each hit is a true
		// Detected at this depth; lifting is only a hit-rate heuristic.
		var (
			replayDetected []fault.FID
			joined         int // pool rows that joined the depth's test set
		)
		fromPool := len(sweep.Depths) > 0
		family := "flow.warm"
		if !fromPool {
			if opts.Replay, err = p.baseline.replay(ctx, clone); err != nil {
				return err
			}
		} else if pool.size() > 0 {
			family = "flow.sweep.replay"
			pool.lift(len(clone.PrimaryInputs()), len(clone.FlipFlops()))
			opts.Replay = &atpg.Replay{Patterns: pool.pats, States: pool.states}
		}
		if opts.Replay != nil {
			opts.Replay.Hit = func(lo, hi int, detected *fault.Set) {
				detected.ForEach(func(fid fault.FID) { replayDetected = append(replayDetected, fid) })
				if fromPool {
					pool.credit(lo, hi, detected.Count())
					joined += hi - lo
				}
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

		// Fold the depth into the cumulative map: untestability proofs
		// persist (deeper depths only tighten the reach constraint), every
		// other verdict is refreshed by the depth that just re-targeted it.
		newProjected := 0
		for id := 0; id < cu.NumFaults(); id++ {
			fid := fault.FID(id)
			st := out.Status.Get(fid)
			if st == fault.Undetected || cum.Get(fid) == fault.Untestable {
				continue
			}
			cum.Set(fid, st)
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
		cumProjected += newProjected
		// Depths re-target every class not yet proven untestable, so class
		// tallies must not be summed across them; only the work counters
		// accumulate here — the classification tallies are derived from the
		// cumulative map after the loop. Depths run sequentially, so elapsed
		// time sums.
		work.SimDropped += out.Stats.SimDropped
		work.Learned += out.Stats.Learned
		work.Patterns += out.Stats.Patterns
		work.Backtracks += out.Stats.Backtracks
		work.Decisions += out.Stats.Decisions
		work.Implications += out.Stats.Implications
		work.GateEvals += out.Stats.GateEvals
		work.Elapsed += out.Stats.Elapsed
		// The depth's new tests join the pool; the pool's own rows that
		// joined the depth's test set are already in it.
		for i := joined; i < len(out.Patterns); i++ {
			pool.add(out.Patterns[i], out.States[i])
		}
		ds := SweepDepthStats{
			Frames:         depth,
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
		dspan.SetInt("frames", int64(depth))
		dspan.SetInt("classes", int64(len(classes)))
		dspan.SetInt("new_untestable", int64(newProjected))
		dspan.SetInt("cum_untestable", int64(cumProjected))
		dspan.SetInt("replay_patterns", int64(ds.ReplayPatterns))
		dspan.SetInt("replay_dropped", int64(ds.ReplayDropped))
		dspan.End()
		hDepth.ObserveSince(depthStart)
		if p.OnDepth != nil {
			if err := p.OnDepth(SweepDepth{
				Frames: depth, Clone: clone, Universe: cu, Sites: sm,
				Obs: obs, Status: out.Status, ReplayDetected: replayDetected,
				Stats: ds,
			}); err != nil {
				return fmt.Errorf("depth %d observer: %w", depth, err)
			}
		}

		// Convergence rule: the projected untestable set is stable across
		// two consecutive depths — the depth that just ran added nothing to
		// what the previous depth had already proven.
		if len(sweep.Depths) >= 2 && newProjected == 0 {
			sweep.Converged = true
		}
		if sweep.Converged || depth >= p.MaxFrames {
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
		// Warm-start the next depth: the grader (simulator, shared graph,
		// observation CSRs) and the learning cache extend in place over the
		// appended suffix instead of rebuilding from the full netlist.
		if err := grader.Extend(order); err != nil {
			return fmt.Errorf("extend grader to %d frames: %w", ur.Frames(), err)
		}
		if learn != nil {
			if err := learn.Extend(order, stale, env.Metrics); err != nil {
				return fmt.Errorf("extend learning to %d frames: %w", ur.Frames(), err)
			}
		}
	}
	sweep.FinalFrames = ur.Frames()

	// The converged Stats mirror what a one-shot run at the final depth
	// would report: class tallies over the final depth's collapse with the
	// cumulative statuses (a rep shares its class's status at every
	// refinement level, so indexing cum by rep is exact), plus the work
	// counters summed across depths — SimDropped, Patterns, Backtracks and
	// Elapsed measure the sweep's total work, so re-targeted classes count
	// once per depth there.
	stats := work
	stats.Faults = cu.NumFaults()
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

	// The converged test set is the warm-start pool — the deduplicated,
	// capped union of every depth's patterns — lifted to the final depth's
	// input widths so every row is one uniform stimulus for the final clone.
	// A pool row is complete at the depth that emitted it and X over the
	// inputs of every frame appended since; the lift completes copies, as
	// GenerateAll completes a search's test, and leaves the pool's rows and
	// dedup keys alone.
	pats, states := atpg.LiftTests(pool.pats, pool.states,
		len(clone.PrimaryInputs()), len(clone.FlipFlops()))
	p.Result = &ScenarioResult{
		Scenario: p.Scenario,
		Clone:    clone,
		Universe: cu,
		Sites:    sm,
		Obs:      obs,
		Outcome: &atpg.Outcome{
			Stats:    stats,
			Status:   cum,
			Patterns: pats,
			States:   states,
		},
		Projected: fault.Project(cu, cum, env.Universe),
		Sweep:     sweep,
	}
	return nil
}

var _ Provider = (*SweepProvider)(nil)
