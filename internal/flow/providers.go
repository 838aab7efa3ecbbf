package flow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sched"
	"olfui/internal/sim"
)

// classSource builds a provider's dynamic class source — a chunked,
// work-stealing lease queue over its class list — when the campaign runs the
// dynamic scheduler. Nil (static strict-order dispatch inside GenerateAll)
// otherwise. The queue shares the campaign registry, so sched.* counters and
// the queue-depth gauge aggregate across every provider of the run.
//
// Dispatch order is the one degree of freedom the queue owns that the static
// path contractually lacks (static dispatch preserves the class list's
// strict order), and the scheduler spends it on fault dropping: classes are
// served hardest-first by SCOAP detection difficulty. A hard fault's test is
// highly specified, so grading it against the live remainder drops many easy
// classes wholesale — easy-first order would search those classes instead.
// Reordering is sound for the campaign deliverable because Detected and
// Untestable are order-invariant complete proofs; only Aborted verdicts are
// search-order-sensitive, the same caveat static sharding already carries.
func classSource(env Env, u *fault.Universe, ann *netlist.Annotations, classes []fault.FID) sched.Source {
	if !env.Sched || classes == nil {
		return nil
	}
	return sched.NewQueue(hardestFirst(u, ann, classes), sched.Options{
		Workers: env.ATPG.Workers,
		Metrics: env.Metrics,
	})
}

// hardestFirst returns classes reordered by descending SCOAP detection
// difficulty of the class representative: detecting stuck-at-v on net n
// needs n controlled to ¬v and the value propagated to an observation
// point, so the difficulty is CC(¬v)(n) + CO(n) (saturating). Ties keep
// ascending-FID order, so the dispatch order is deterministic for a given
// annotation pass. A nil annotation set keeps the input order; the input
// slice is never mutated (shard plans are shared wire/journal state).
func hardestFirst(u *fault.Universe, ann *netlist.Annotations, classes []fault.FID) []fault.FID {
	if ann == nil || u == nil {
		return classes
	}
	cost := func(fid fault.FID) int32 {
		f := u.FaultOf(fid)
		net := u.NetOf(f.Site)
		return netlist.SatAdd(ann.CCOf(net, f.SA == logic.Zero), ann.CO[net])
	}
	ordered := append([]fault.FID(nil), classes...)
	sort.Slice(ordered, func(i, j int) bool {
		ci, cj := cost(ordered[i]), cost(ordered[j])
		if ci != cj {
			return ci > cj
		}
		return ordered[i] < ordered[j]
	})
	return ordered
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

// BaselineProvider runs full-scan ATPG over one shard of the collapsed
// class list of the original netlist and streams every verdict into the
// full-scan channel. NewBaselineProviders plans the shards; shard streams
// from independent providers merge through the same delta protocol a
// distributed deployment would use.
type BaselineProvider struct {
	// Shard is the provider's slice of the class list. A nil Classes slice
	// (zero Shard) targets every class.
	Shard fault.Shard
	// Ann optionally shares one precomputed annotation pass across every
	// shard of the plan (annotations are read-only during generation);
	// RunCampaign fills it in. Nil lets GenerateAll compute its own.
	Ann *netlist.Annotations
	// Learn optionally shares one static learning pass (atpg.BuildLearning)
	// the same way — learned facts are properties of the netlist alone, so
	// every shard screens against the same build; RunCampaign fills it in.
	// Nil lets GenerateAll build its own (or skip it under NoLearn).
	Learn *atpg.Learning
	// Outcome holds the shard's full ATPG result after a successful Run:
	// the emitted test set and stats, with Status spread over the shard's
	// classes. MergeOutcomes folds the shards back into one baseline.
	Outcome *atpg.Outcome
}

// NewBaselineProviders plans k full-scan shards over u. k < 1 is treated
// as 1; a single shard is named "full-scan", k of them "full-scan[i/k]".
func NewBaselineProviders(u *fault.Universe, k int) []*BaselineProvider {
	shards := fault.PlanShards(u, nil, k)
	ps := make([]*BaselineProvider, len(shards))
	for i, sh := range shards {
		ps[i] = &BaselineProvider{Shard: sh}
	}
	return ps
}

// Name implements Provider.
func (p *BaselineProvider) Name() string {
	if p.Shard.Of <= 1 {
		return "full-scan"
	}
	return fmt.Sprintf("full-scan[%d/%d]", p.Shard.Index+1, p.Shard.Of)
}

// Channel implements Provider.
func (p *BaselineProvider) Channel() Channel { return ChannelFullScan }

// Run implements Provider: class verdicts stream as they commit, and a
// final delta carries the class-spread map (re-announcing representatives
// is harmless — the lattice join is idempotent).
func (p *BaselineProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	em := newEmitter(p.Name(), emit)
	var emitErr error
	opts := env.ATPG
	opts.Classes = p.Shard.Classes
	opts.Source = classSource(env, env.Universe, p.Ann, p.Shard.Classes)
	opts.Annotations = p.Ann
	opts.Learn = p.Learn
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

// MergeOutcomes folds per-shard baseline outcomes into one: the merged
// status map, the concatenated test set (shard order, for determinism of
// the layout — pattern order within a shard already depends on worker
// interleaving), and summed stats. The status map is taken from the
// campaign's full-scan accumulator, which already holds the lattice merge
// of every shard's stream.
func MergeOutcomes(ps []*BaselineProvider, merged *fault.StatusMap) *atpg.Outcome {
	if len(ps) == 1 && ps[0].Outcome != nil {
		return ps[0].Outcome
	}
	out := &atpg.Outcome{Status: merged}
	for _, p := range ps {
		if p.Outcome == nil {
			continue
		}
		out.Stats.Add(p.Outcome.Stats)
		out.Patterns = append(out.Patterns, p.Outcome.Patterns...)
		out.States = append(out.States, p.Outcome.States...)
	}
	return out
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
	// ShardIndex/ShardOf select one shard of the deterministic
	// fault.PlanShards plan over the constrained clone's collapsed class
	// list; ShardOf <= 1 targets every class. The shards of one scenario
	// partition its class list exactly like baseline shards partition the
	// original universe's, which is what keeps one huge scenario from
	// bounding campaign latency: its class list streams from ShardOf
	// concurrent providers instead of one.
	ShardIndex, ShardOf int
	// prep shares the constrained clone, universe, site map, annotations
	// and shard plan across the providers of one shard group
	// (NewScenarioProviders wires one in): the clone is read-only during
	// generation — the same contract that lets baseline shards share env.N
	// and one Annotate pass — so only the first Run to arrive pays for the
	// transform stack. Nil (struct-literal construction) builds privately.
	prep *scenarioPrep
	// Result holds everything proven on the clone after a successful Run.
	Result *ScenarioResult
}

// NewScenarioProviders plans k shard providers over one scenario, sharing
// one clone preparation across them. k < 1 is treated as 1; a single
// provider targets every class.
func NewScenarioProviders(sc Scenario, k int) []*ScenarioProvider {
	if k < 1 {
		k = 1
	}
	prep := &scenarioPrep{}
	ps := make([]*ScenarioProvider, k)
	for i := range ps {
		ps[i] = &ScenarioProvider{Scenario: sc, ShardIndex: i, ShardOf: k, prep: prep}
	}
	return ps
}

// scenarioPrep is the once-per-scenario constrained-clone state shard
// providers share. Everything here is read-only after build: concurrent
// GenerateAll runs recompute their own (path-compressing) collapse, and the
// shard plan is computed once here instead of per provider.
type scenarioPrep struct {
	once   sync.Once
	err    error
	clone  *netlist.Netlist
	sm     *fault.SiteMap
	cu     *fault.Universe
	ann    *netlist.Annotations
	learn  *atpg.Learning
	shards []fault.Shard
}

// build constructs the shared state on first call; later callers reuse it.
// The build cost lands on the first arrival's telemetry: a "prep" child span
// under its provider span, and one "flow.prep_ns" histogram sample — later
// shards reuse the state for free, which the span tree then shows.
func (sp *scenarioPrep) build(env Env, sc Scenario, shardOf int) error {
	sp.once.Do(func() {
		start := time.Now()
		prepSpan := env.Span.Child("prep")
		defer func() {
			env.Metrics.Histogram("flow.prep_ns").ObserveSince(start)
			if sp.err != nil {
				prepSpan.SetAttr("err", sp.err.Error())
			}
			prepSpan.End()
		}()
		clone := env.N.Clone()
		sm, err := constraint.ApplyMapped(clone, sc.Transforms...)
		if err != nil {
			sp.err = err
			return
		}
		cu := fault.NewUniverse(clone)
		ann, err := clone.Annotate()
		if err != nil {
			sp.err = err
			return
		}
		sp.clone, sp.sm, sp.cu, sp.ann = clone, sm, cu, ann
		if !env.ATPG.NoLearn {
			// The learning cache is keyed by the clone: facts depend only on
			// the constrained netlist (not the obs selection), so one build
			// serves every shard of the scenario.
			if sp.learn, err = atpg.BuildLearning(clone, env.Metrics); err != nil {
				sp.err = err
				return
			}
		}
		// The plan is computed even for a single provider (k=1 is the full
		// class list): providers always target an explicit class list, which
		// is what the dynamic class source is built over.
		if shardOf < 1 {
			shardOf = 1
		}
		sp.shards = fault.PlanShards(cu, nil, shardOf)
	})
	return sp.err
}

// Name implements Provider.
func (p *ScenarioProvider) Name() string {
	if p.ShardOf <= 1 {
		return "scenario:" + p.Scenario.Name
	}
	return fmt.Sprintf("scenario:%s[%d/%d]", p.Scenario.Name, p.ShardIndex+1, p.ShardOf)
}

// Channel implements Provider.
func (p *ScenarioProvider) Channel() Channel { return ChannelMission }

// Run implements Provider.
func (p *ScenarioProvider) Run(ctx context.Context, env Env, emit EmitFn) error {
	if err := ctx.Err(); err != nil {
		return err // don't pay for the clone when already cancelled
	}
	if p.prep == nil {
		p.prep = &scenarioPrep{}
	}
	if err := p.prep.build(env, p.Scenario, p.ShardOf); err != nil {
		return err
	}
	if p.ShardOf > 1 && p.ShardIndex >= len(p.prep.shards) {
		// Surplus shard of an over-provisioned plan (PlanShards caps the
		// plan at the class count, never below one shard): nothing to
		// target, so skip the engine and grader setup entirely. Shard 0
		// always exists, so MergeScenarioResults still gets the clone
		// state; a nil Result merges as "no classes".
		return nil
	}
	clone, sm, cu := p.prep.clone, p.prep.sm, p.prep.cu
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
	opts.Annotations = p.prep.ann
	opts.Learn = p.prep.learn
	// In range by the surplus-shard early return above (ShardIndex is 0 for
	// an unsharded provider); PlanShards hands out non-nil class lists, so
	// an empty shard targets nothing rather than falling back to "every
	// class".
	opts.Classes = p.prep.shards[p.ShardIndex].Classes
	opts.Source = classSource(env, cu, p.prep.ann, opts.Classes)
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

// MergeScenarioResults folds the per-shard results of one scenario into a
// fresh ScenarioResult, leaving the shard results untouched (like its
// sibling MergeOutcomes). The shards share one clone preparation, so their
// status maps index one universe and — covering disjoint class sets by the
// shard plan — overlay without arbitration. The merged result keeps the
// first live shard's clone, universe, site map and observation points
// (shard 0 in a fully live run); surplus shards of an over-provisioned plan
// carry no Result and merge as "no classes". Shards restored from a journal
// (ScenarioResult.Restored) contribute only their Projected map — their
// clone state and engine outcome died with the interrupted process — and
// any restored shard marks the merged result Restored.
func MergeScenarioResults(ps []*ScenarioProvider) *ScenarioResult {
	if len(ps) == 0 {
		return nil
	}
	var base *ScenarioResult
	for _, p := range ps {
		if r := p.Result; r != nil && !r.Restored {
			base = r
			break
		}
	}
	if base == nil {
		for _, p := range ps {
			if p.Result != nil {
				base = p.Result
				break
			}
		}
	}
	if base == nil {
		return nil
	}
	if len(ps) == 1 {
		return base
	}
	merged := &ScenarioResult{
		Scenario:  base.Scenario,
		Clone:     base.Clone,
		Universe:  base.Universe,
		Sites:     base.Sites,
		Obs:       base.Obs,
		Outcome:   &atpg.Outcome{},
		Projected: base.Projected.Clone(),
		Sweep:     base.Sweep,
		Restored:  base.Restored,
	}
	if !base.Restored {
		merged.Outcome = &atpg.Outcome{
			Stats:    base.Outcome.Stats,
			Status:   base.Outcome.Status.Clone(),
			Patterns: append([]sim.Pattern(nil), base.Outcome.Patterns...),
			States:   append([]sim.Pattern(nil), base.Outcome.States...),
		}
	}
	for _, p := range ps {
		r := p.Result
		if r == nil || r == base {
			continue
		}
		merged.Projected.Overlay(r.Projected)
		if r.Restored {
			merged.Restored = true
			continue
		}
		merged.Outcome.Stats.Add(r.Outcome.Stats)
		merged.Outcome.Patterns = append(merged.Outcome.Patterns, r.Outcome.Patterns...)
		merged.Outcome.States = append(merged.Outcome.States, r.Outcome.States...)
		if merged.Outcome.Status != nil {
			merged.Outcome.Status.Overlay(r.Outcome.Status)
		}
	}
	return merged
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
