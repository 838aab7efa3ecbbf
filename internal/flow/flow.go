// Package flow orchestrates the paper's identification pipeline as a
// streaming evidence campaign. Evidence about the faults of one universe —
// detected, proven functionally untestable, unresolved — arrives from
// pluggable Providers as ordered fault.Delta streams and folds into
// per-channel monotone lattice merges (Undetected < Aborted <
// Detected/Untestable; Detected-vs-Untestable inside a channel is a hard
// conflict, see fault.ConflictError). Three providers ship here:
//
//   - BaselineProvider — full-scan ATPG on the original netlist, streaming
//     every verdict;
//   - ScenarioProvider — ATPG on a mission-constrained clone (constraint
//     transforms plus an observation selection), streaming projected
//     untestability proofs; with MaxFrames it sweeps an unrolled scenario
//     frame by frame on one incrementally extended clone, and each deeper
//     depth replays the tests of the depth before it;
//   - PatternProvider — sim.GradeSeq grading of externally produced mission
//     stimuli, streaming measured on-line detections.
//
// A Campaign runs providers concurrently under a context.Context —
// cancellation and deadlines stop ATPG mid-search with no goroutine leaks —
// and reports per-provider progress events as deltas merge. Every ATPG
// provider hands atpg.GenerateAll the set of classes to target, and
// GenerateAll owns the dispatch order (hardest-first; one loop on the
// provider's goroutine searches the classes one at a time), while one
// campaign-wide sched.Pool caps the searches in flight across providers. So
// the worker budget decides only how many providers search at once: a
// campaign's classification, test sets and delta streams are the same at
// every budget.
//
// On top of the campaign core, RunCampaign assembles the paper's
// deliverable: it classifies every fault of the original universe as
// FullScanTestable, FuncUntestable (with the proving scenario as evidence)
// or Unresolved, and computes the coverage-target correction — faults that
// are Detected full-scan but functionally untestable inflate an on-line
// self-test's coverage target, and the corrected target excludes them.
package flow

import (
	"context"
	"fmt"
	"sync"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/journal"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
)

// Scenario is one named mission-mode model: a constraint stack applied to a
// fresh clone plus the observation points available in that configuration.
type Scenario struct {
	Name       string
	Transforms []constraint.Transform
	// Observe selects the scenario's observation points on the transformed
	// clone; nil means full-scan observation (constraint.ObserveFullScan).
	Observe constraint.ObsFn
}

// Classification is the flow's per-fault verdict over all scenarios.
type Classification uint8

// Per-fault classifications.
const (
	Unresolved Classification = iota
	FullScanTestable
	FuncUntestable
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Unresolved:
		return "unresolved"
	case FullScanTestable:
		return "full-scan-testable"
	case FuncUntestable:
		return "func-untestable"
	}
	return fmt.Sprintf("Classification(%d)", uint8(c))
}

// EvidenceFullScan marks faults proven untestable by the unconstrained
// baseline run (structural redundancy): every scenario inherits the proof.
const EvidenceFullScan = -1

// evidenceNone marks faults with no untestability proof.
const evidenceNone = -2

// ScenarioResult carries everything proven on one constrained clone.
type ScenarioResult struct {
	Scenario Scenario
	// Clone is the transformed netlist the verdicts were proven on.
	Clone *netlist.Netlist
	// Universe is the fault universe enumerated on the clone (dead and
	// synthetic gates contribute no sites, so its dense numbering differs
	// from the original's; fault.Project bridges the two).
	Universe *fault.Universe
	// Sites is the replica site map the scenario's verdicts were proven
	// under: non-empty for time-expanded scenarios, where every fault was
	// injected jointly at its site and at all frame replicas (multi-frame
	// injection), and empty, the single-site semantics, otherwise.
	// Independent re-verification — grading, the exhaustive oracle — must
	// expand faults through the same map.
	Sites *fault.SiteMap
	// Obs is the scenario's observation-point set on the clone.
	Obs []sim.ObsPoint
	// Outcome is the ATPG result against Universe.
	Outcome *atpg.Outcome
	// Projected is Outcome.Status translated onto the original universe.
	Projected *fault.StatusMap
	// Sweep carries the per-depth record when the scenario ran as an
	// adaptive depth sweep (Options.MaxFrames); nil otherwise. Clone,
	// Universe, Sites and Outcome then describe the converged final depth,
	// with untestability proofs accumulated from every shallower depth.
	Sweep *SweepResult
	// Restored marks a result (at least partly) restored from a journal
	// rather than computed in this process: Scenario, Projected and Sweep
	// are complete, but Clone, Universe, Sites, Obs and Outcome may be
	// partial or absent — independent re-verification (grading, the
	// exhaustive oracle) needs the live clone state and must skip restored
	// results.
	Restored bool
}

// Report is the flow's deliverable.
type Report struct {
	N        *netlist.Netlist
	Universe *fault.Universe
	// Baseline is the unconstrained full-scan ATPG outcome. When a resumed
	// campaign skipped the baseline, it carries only the journaled Status.
	Baseline *atpg.Outcome
	// Scenarios holds per-scenario results in input order.
	Scenarios []*ScenarioResult
	// Mission is the merged mission-channel evidence: Untestable entries
	// streamed by scenario providers, Detected entries by graded pattern
	// sets.
	Mission *fault.StatusMap
	// PatternDetected is the set of faults the graded mission pattern sets
	// detected; nil when no patterns were supplied.
	PatternDetected *fault.Set
	// Class[fid] classifies every fault of the original universe.
	Class []Classification
	// Resumed names the providers a journal-backed run skipped because a
	// previous interrupted run had already completed them; empty for a
	// fresh (or journal-less) run.
	Resumed []string
	// evidence[fid] is the index into Scenarios of the proving scenario,
	// EvidenceFullScan, or evidenceNone.
	evidence []int32
}

// Options configures a flow run.
type Options struct {
	// ATPG configures the engines. The options a campaign owns must be
	// left nil (see CampaignOptions.ATPG).
	ATPG atpg.Options
	// Workers is the campaign-wide worker budget (CampaignOptions.Workers):
	// the maximum number of searches in flight across ALL providers,
	// enforced by one shared sched.Pool. 0 means runtime.NumCPU().
	Workers int
	// Serial runs the providers one at a time (CampaignOptions.Serial), which
	// is useful for deterministic profiling; by default they run
	// concurrently.
	Serial bool
	// MaxFrames enables the adaptive sequential-depth sweep: every scenario
	// whose transform stack ends in a constraint.Unroll runs as a swept
	// ScenarioProvider, extending one clone preparation from the scenario's
	// Frames up to this budget and stopping early once the projected
	// untestable set converges. Must be >= each such scenario's starting
	// Frames, and at least one scenario must end in an Unroll. 0 disables
	// sweeping.
	MaxFrames int
	// SweepOnDepth, when non-nil, observes every completed depth of every
	// swept scenario (see ScenarioProvider.OnDepth); a non-nil return fails
	// the campaign. Calls are serialized across concurrently swept
	// scenarios, so the callback may touch shared state without locking.
	SweepOnDepth func(scenario string, d SweepDepth) error
	// Patterns are externally produced mission stimuli graded by a
	// PatternProvider alongside the ATPG providers.
	Patterns []PatternSet
	// Progress, when non-nil, observes merged deltas and provider
	// completions.
	Progress func(Event)
	// Metrics, when non-nil, receives campaign telemetry (see
	// CampaignOptions.Metrics); it is threaded into every provider and
	// engine, so ATPG.Metrics must be left nil.
	Metrics *obs.Registry
	// Journal, when non-nil, makes the run durable and resumable (see
	// CampaignOptions.Journal): committed deltas are written ahead to it,
	// and a journal recovered from a previous interrupted run of the same
	// campaign restores merged evidence and skips finished providers —
	// Report.Resumed names them.
	Journal *journal.Journal
}

// RunCampaign executes the identification pipeline under ctx: a full-scan
// baseline, one provider per scenario, and — when opts.Patterns is
// non-empty — a pattern-grading provider, all streaming into one campaign.
// The universe must be enumerated on n. Scenario names must be unique and
// non-empty.
func RunCampaign(ctx context.Context, n *netlist.Netlist, u *fault.Universe, scenarios []Scenario, opts Options) (*Report, error) {
	if err := checkEngineOptions("Options", opts.ATPG); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("flow: scenario with empty name")
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("flow: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
	}

	c := NewCampaign(n, u, CampaignOptions{
		ATPG:     opts.ATPG,
		Workers:  opts.Workers,
		Serial:   opts.Serial,
		Progress: opts.Progress,
		Metrics:  opts.Metrics,
		Journal:  opts.Journal,
	})
	// Every ATPG scenario replays the baseline's emitted tests on its clone
	// before its first search: a scenario's constraints are gates in its
	// clone, so any assignment to the clone's inputs is a legal mission
	// input, and a detection its own grader sees is a true one there.
	tests := newBaselineTests()
	base := &BaselineProvider{tests: tests}
	if err := c.Add(base); err != nil {
		return nil, err
	}
	scps := make([]*ScenarioProvider, len(scenarios))
	sweepable := 0
	// Swept providers run concurrently but share one caller-facing observer:
	// the lock keeps the documented "serialized calls" contract.
	var onDepthMu sync.Mutex
	for i, sc := range scenarios {
		scps[i] = &ScenarioProvider{Scenario: sc, baseline: tests}
		if u, ok := sweepableUnroll(sc); ok && opts.MaxFrames > 0 {
			if opts.MaxFrames < u.Frames {
				return nil, fmt.Errorf("flow: scenario %q starts at %d frames, above MaxFrames %d",
					sc.Name, u.Frames, opts.MaxFrames)
			}
			scps[i].MaxFrames = opts.MaxFrames
			if opts.SweepOnDepth != nil {
				name := sc.Name
				scps[i].OnDepth = func(d SweepDepth) error {
					onDepthMu.Lock()
					defer onDepthMu.Unlock()
					return opts.SweepOnDepth(name, d)
				}
			}
			sweepable++
		}
		if err := c.Add(scps[i]); err != nil {
			return nil, err
		}
	}
	if opts.MaxFrames > 0 && sweepable == 0 {
		return nil, fmt.Errorf("flow: MaxFrames set but no scenario ends in an Unroll to sweep")
	}
	var pp *PatternProvider
	if len(opts.Patterns) > 0 {
		pp = &PatternProvider{Sets: opts.Patterns}
		if err := c.Add(pp); err != nil {
			return nil, err
		}
	}

	ev, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}

	baseline := base.Outcome
	if baseline == nil {
		// The baseline was skipped on resume: its verdicts are in the
		// full-scan channel, its test set died with the interrupted process.
		baseline = &atpg.Outcome{Status: ev.FullScan.Status()}
	}
	r := &Report{
		N:         n,
		Universe:  u,
		Baseline:  baseline,
		Scenarios: make([]*ScenarioResult, len(scenarios)),
		Mission:   ev.Mission.Status(),
		Class:     make([]Classification, u.NumFaults()),
		Resumed:   c.Resumed(),
		evidence:  make([]int32, u.NumFaults()),
	}
	for i, p := range scps {
		r.Scenarios[i] = p.Result
	}
	if pp != nil {
		if pp.Detected == nil {
			// The pattern provider was skipped on resume. Its union is
			// reconstructible exactly: pattern grading is the only source of
			// Detected entries in the mission channel.
			det := fault.NewSet(u)
			for id := 0; id < u.NumFaults(); id++ {
				if ev.Mission.Get(fault.FID(id)) == fault.Detected {
					det.Add(fault.FID(id))
				}
			}
			pp.Detected = det
		}
		r.PatternDetected = pp.Detected
	}
	r.classify()
	return r, nil
}

// classify folds the baseline and every projected scenario map into the
// per-fault classification.
func (r *Report) classify() {
	for id := range r.Class {
		fid := fault.FID(id)
		ev := int32(evidenceNone)
		if r.Baseline.Status.Get(fid) == fault.Untestable {
			// Untestable with full controllability and observability is
			// untestable under every restriction of them.
			ev = EvidenceFullScan
		} else {
			for si, sr := range r.Scenarios {
				if sr.Projected.Get(fid) == fault.Untestable {
					ev = int32(si)
					break
				}
			}
		}
		r.evidence[id] = ev
		switch {
		case ev != evidenceNone:
			r.Class[id] = FuncUntestable
		case r.Baseline.Status.Get(fid) == fault.Detected:
			r.Class[id] = FullScanTestable
		default:
			r.Class[id] = Unresolved
		}
	}
}

// Evidence returns the scenario index proving fid functionally untestable
// (EvidenceFullScan for baseline proofs). ok is false when fid is not
// classified FuncUntestable.
func (r *Report) Evidence(fid fault.FID) (int, bool) {
	ev := r.evidence[fid]
	if ev == evidenceNone {
		return 0, false
	}
	return int(ev), true
}

// EvidenceName renders the proving scenario of fid, or "".
func (r *Report) EvidenceName(fid fault.FID) string {
	ev, ok := r.Evidence(fid)
	if !ok {
		return ""
	}
	if ev == EvidenceFullScan {
		return "full-scan"
	}
	return r.Scenarios[ev].Scenario.Name
}

// FaultsClassified returns the fault IDs holding class c, ascending.
func (r *Report) FaultsClassified(c Classification) []fault.FID {
	var out []fault.FID
	for id, cl := range r.Class {
		if cl == c {
			out = append(out, fault.FID(id))
		}
	}
	return out
}
