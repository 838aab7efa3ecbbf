package flow

import (
	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// SweepDepthStats summarizes one swept depth of a ScenarioProvider sweep.
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
	// clone, at the first depth (0 when the baseline handed over none), and
	// the previous depth's emitted tests, lifted onto the deeper clone, at
	// every later depth.
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

// SweepDepth hands a ScenarioProvider.OnDepth observer the full state of one
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
	// baseline's tests at the first depth, the previous depth's after it)
	// proved Detected at this depth, before any search dispatched. Their
	// classes appear Detected in Status.
	ReplayDetected []fault.FID
	// Stats is the depth's summary, identical to the SweepResult entry.
	Stats SweepDepthStats
}

// sweepableUnroll returns the trailing constraint.Unroll of a scenario's
// transform stack, the shape RunCampaign sweeps under MaxFrames; a stack
// that does not end in an Unroll runs once.
func sweepableUnroll(sc Scenario) (constraint.Unroll, bool) {
	if len(sc.Transforms) == 0 {
		return constraint.Unroll{}, false
	}
	u, ok := sc.Transforms[len(sc.Transforms)-1].(constraint.Unroll)
	return u, ok
}
