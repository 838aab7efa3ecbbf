package atpg

import (
	"time"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/sim"
)

// Generate runs the PODEM search for one fault, expanded through
// Options.Sites into its joint multi-site injection (single-site when no
// site map is configured), and returns its verdict. A Detected result
// carries the generated pattern; an Untestable result is a proof (the full
// decision tree over the controllable inputs was exhausted under sound
// pruning); Aborted means the backtrack limit was hit first.
func (e *Engine) Generate(f fault.Fault) Result {
	return e.GenerateInjection(e.opts.Sites.Expand(f))
}

// GenerateInjection runs the PODEM search for an explicit joint injection:
// the stuck value is present at every site of the injection simultaneously,
// and the verdict is about that whole faulty machine. The injection must
// have at least one site and a known stuck value.
func (e *Engine) GenerateInjection(inj fault.Injection) (res Result) {
	if len(inj.Sites) == 0 {
		panic("atpg: injection with no sites")
	}
	if !inj.SA.IsKnown() {
		panic("atpg: injection stuck value must be 0 or 1")
	}
	// The per-search work tallies are plain ints — telemetry aggregation
	// happens once per class in GenerateAll's dispatch loop, never inside the
	// decision loop.
	start := time.Now()
	decisions, implications := 0, 0
	defer func() {
		res.Backtracks = e.backtracks
		res.Decisions = decisions
		res.Implications = implications
		res.GateEvals = e.gateEvals
		res.Elapsed = time.Since(start)
	}()
	e.setInjection(inj)
	e.buildCone()
	for i := range e.assigns {
		e.assigns[i] = logic.X
	}
	e.stack = e.stack[:0]
	e.backtracks = 0
	e.gateEvals = 0

	e.implyCone()
	implications++
	for {
		// A completed detection wins over cancellation: if the implication
		// pass we already paid for reached an observation point, the pattern
		// is earned — returning Aborted(cancel) here would throw it away.
		if e.detected() {
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
		for _, obj := range e.nextObjectives() {
			idx, v, ok := e.backtrace(obj)
			if !ok {
				continue
			}
			e.assigns[idx] = v
			e.changed = append(e.changed, idx)
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
		e.imply()
		implications++
	}
}

// backtrack resolves a conflict: it flips the deepest unflipped decision
// (undoing everything below it) or, if none remains, reports exhaustion.
// Every assignable it flips or clears joins Engine.changed.
func (e *Engine) backtrack() bool {
	for len(e.stack) > 0 {
		top := &e.stack[len(e.stack)-1]
		if !top.flipped {
			top.flipped = true
			top.val = top.val.Not()
			e.assigns[top.idx] = top.val
			e.changed = append(e.changed, top.idx)
			e.backtracks++
			return true
		}
		e.assigns[top.idx] = logic.X
		e.changed = append(e.changed, top.idx)
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}
