package flow

import (
	"context"
	"fmt"
	"sort"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// classesIn lists the representatives of collapse in ascending FID order,
// skipping those cum holds Untestable (a nil cum skips none). Providers order
// the list with hardestFirst before handing it to GenerateAll. The depth
// sweep passes its cumulative map and recomputes the collapse per depth:
// appended frames grow fanout on frame-invariant nets, which only refines
// the partition, so every member of a skipped representative's former class
// is itself already proven untestable.
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

// hardestFirst sorts classes in place by descending SCOAP detection
// difficulty of the class representative and returns them: detecting
// stuck-at-v on net n needs n controlled to ¬v and the value propagated to
// an observation point, so the difficulty is CC(¬v)(n) + CO(n)
// (saturating). Ties keep ascending-FID order, so the order is
// deterministic for a given annotation pass.
//
// Every ATPG provider hands GenerateAll its class list in this order, and
// spends the one degree of freedom dispatch order has on fault dropping: hard
// faults are searched while the live remainder is largest, and each of their
// completed tests drops many easy classes wholesale — easy-first order would
// search those classes instead. Reordering is sound for the campaign
// deliverable because Detected and Untestable are order-invariant complete
// proofs; only Aborted verdicts are search-order-sensitive.
func hardestFirst(u *fault.Universe, ann *netlist.Annotations, classes []fault.FID) []fault.FID {
	cost := func(fid fault.FID) int32 {
		f := u.FaultOf(fid)
		net := u.NetOf(f.Site)
		return netlist.SatAdd(ann.CCOf(net, f.SA == logic.Zero), ann.CO[net])
	}
	sort.Slice(classes, func(i, j int) bool {
		ci, cj := cost(classes[i]), cost(classes[j])
		if ci != cj {
			return ci > cj
		}
		return classes[i] < classes[j]
	})
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

// BaselineProvider runs full-scan ATPG over every collapsed class of the
// original netlist and streams every verdict into the full-scan channel.
type BaselineProvider struct {
	// Outcome holds the full ATPG result after a successful Run: the
	// emitted test set and stats, with Status spread over every class.
	Outcome *atpg.Outcome
}

// Name implements Provider.
func (p *BaselineProvider) Name() string { return "full-scan" }

// Channel implements Provider.
func (p *BaselineProvider) Channel() Channel { return ChannelFullScan }

// Run implements Provider: class verdicts stream as they commit, and a
// final delta carries the class-spread map (re-announcing representatives
// is harmless — the lattice join is idempotent).
func (p *BaselineProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	ann, err := env.N.Annotate()
	if err != nil {
		return err
	}
	em := newEmitter(p.Name(), emit)
	var emitErr error
	opts := env.ATPG
	opts.Annotations = ann
	opts.Classes = hardestFirst(env.Universe, ann, classesIn(fault.NewCollapse(env.Universe), env.Universe, nil))
	opts.Progress = func(fid fault.FID, v atpg.Verdict) {
		if emitErr == nil {
			emitErr = em.add(fid, verdictStatus(v))
		}
	}
	out, err := atpg.GenerateAll(ctx, env.N, env.Universe, opts)
	if err != nil {
		return err
	}
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
	// Result holds everything proven on the clone after a successful Run.
	Result *ScenarioResult
}

// Name implements Provider.
func (p *ScenarioProvider) Name() string { return "scenario:" + p.Scenario.Name }

// Channel implements Provider.
func (p *ScenarioProvider) Channel() Channel { return ChannelMission }

// Run implements Provider.
func (p *ScenarioProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	if err := ctx.Err(); err != nil {
		return err // don't pay for the clone when already cancelled
	}
	// Clone preparation: the constrained clone, its universe and site map,
	// annotations, learning cache and class list. Its cost lands in a
	// "prep" child span and one "flow.prep_ns" sample.
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
	sm, err := constraint.ApplyMapped(clone, p.Scenario.Transforms...)
	if err != nil {
		return endPrep(err)
	}
	cu := fault.NewUniverse(clone)
	ann, err := clone.Annotate()
	if err != nil {
		return endPrep(err)
	}
	var learn *atpg.Learning
	if !env.ATPG.NoLearn {
		// Learned facts depend only on the constrained netlist, not on the
		// observation selection.
		if learn, err = atpg.BuildLearning(clone, env.Metrics); err != nil {
			return endPrep(err)
		}
	}
	classes := classesIn(fault.NewCollapse(cu), cu, nil)
	endPrep(nil)

	obsFn := p.Scenario.Observe
	if obsFn == nil {
		obsFn = constraint.ObserveFullScan
	}
	obs := obsFn(clone)
	if len(obs) == 0 {
		return fmt.Errorf("observation selection returned no points")
	}

	// missionLive: the fault's site net still has readers on the clone, so
	// the verdict is about mission behavior rather than a disconnected pin.
	missionLive := func(fid fault.FID) bool {
		f := cu.FaultOf(fid)
		return len(clone.Nets[cu.NetOf(f.Site)].Fanout) > 0
	}
	em := newEmitter(p.Name(), emit)
	var emitErr error
	opts := env.ATPG
	opts.ObsPoints = obs
	if !sm.Empty() {
		// Multi-frame injection is the default for unrolled scenarios: the
		// permanent fault is injected in every time frame at once, so the
		// streamed Untestable proofs are about the permanent fault rather
		// than the final-frame-only approximation.
		opts.Sites = sm
	}
	opts.Annotations = ann
	opts.Learn = learn
	opts.Classes = hardestFirst(cu, ann, classes)
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
	if emitErr != nil {
		return emitErr
	}
	if err := em.flush(); err != nil {
		return err
	}
	for id := 0; id < cu.NumFaults(); id++ {
		fid := fault.FID(id)
		if out.Status.Get(fid) != fault.Untestable || !missionLive(fid) {
			continue
		}
		if oid := env.Universe.IDOf(cu.FaultOf(fid)); oid != fault.InvalidFID {
			if err := em.add(oid, fault.Untestable); err != nil {
				return err
			}
		}
	}
	if err := em.flush(); err != nil {
		return err
	}
	projected := fault.Project(cu, out.Status, env.Universe)
	p.Result = &ScenarioResult{
		Scenario:  p.Scenario,
		Clone:     clone,
		Universe:  cu,
		Sites:     opts.Sites,
		Obs:       obs,
		Outcome:   out,
		Projected: projected,
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
// sim.GradeSeqSitesObs and streams the detected faults into the mission
// channel — the ROADMAP's "functional pattern import". The grader skips
// faults no observation point can see, drops each fault in the cycle it is
// detected and regroups the survivors, so a set's cost tracks the faults it
// has yet to detect. A malformed set (a row that does not drive every
// input) fails the provider with an error naming the set and the cycle.
// Because mission detections and scenario untestability proofs merge into
// the same lattice, a stimulus that detects a fault some scenario proved
// functionally untestable fails the campaign with a fault.ConflictError:
// either the scenario transform was unsound or the stimulus drives the
// design outside its mission model.
type PatternProvider struct {
	// ProviderName is the delta source name; empty means "patterns".
	ProviderName string
	// Sets are graded in order, one delta per set.
	Sets []PatternSet
	// Detected is the union of faults any set detected, set after Run.
	Detected *fault.Set
}

// Name implements Provider.
func (p *PatternProvider) Name() string {
	if p.ProviderName == "" {
		return "patterns"
	}
	return p.ProviderName
}

// Channel implements Provider.
func (p *PatternProvider) Channel() Channel { return ChannelMission }

// Run implements Provider. Faults detected by an earlier set are dropped
// from later gradings — re-detection could only re-announce an entry the
// lattice already holds, so skipping it changes no merged status, no
// conflict outcome, and no Detected union, while each set's simulation cost
// tracks the shrinking remainder.
func (p *PatternProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	remaining := make([]fault.FID, env.Universe.NumFaults())
	for id := range remaining {
		remaining[id] = fault.FID(id)
	}
	detected := fault.NewSet(env.Universe)
	seq := 0
	for _, set := range p.Sets {
		if err := ctx.Err(); err != nil {
			return err
		}
		if set.Name == "" {
			return fmt.Errorf("pattern set %d has no name", seq)
		}
		obsFn := set.Observe
		if obsFn == nil {
			obsFn = constraint.ObserveOutputs
		}
		setSpan := env.Span.Child("set:" + set.Name)
		det, err := sim.GradeSeqSitesObs(
			env.N, env.Universe, set.Stim, obsFn(env.N), remaining, nil, env.Metrics)
		if err != nil {
			setSpan.End()
			return fmt.Errorf("pattern set %q: %w", set.Name, err)
		}
		setSpan.SetInt("graded", int64(len(remaining)))
		setSpan.SetInt("detected", int64(det.Count()))
		setSpan.End()
		d := fault.Delta{Source: p.Name(), Seq: seq}
		det.ForEach(func(fid fault.FID) {
			d.FIDs = append(d.FIDs, fid)
			d.Statuses = append(d.Statuses, fault.Detected)
		})
		seq++
		if err := emit(d); err != nil {
			return err
		}
		detected.UnionWith(det)
		if det.Count() > 0 {
			live := remaining[:0]
			for _, fid := range remaining {
				if !detected.Has(fid) {
					live = append(live, fid)
				}
			}
			remaining = live
		}
	}
	p.Detected = detected
	return nil
}

var _ Provider = (*BaselineProvider)(nil)
var _ Provider = (*ScenarioProvider)(nil)
var _ Provider = (*PatternProvider)(nil)
