package main

import (
	"fmt"

	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/sim"
)

// checkReport is the output check every fresh campaign's report passes. It
// redoes olfui's cross-check through the public API only:
//
//   - the design yields faults that are both detected full-scan and
//     functionally untestable (the paper's over-counted faults);
//   - every func-untestable fault cites evidence that proves it: the
//     baseline's Untestable verdict, or the citing scenario's projected one;
//   - the baseline test set, re-graded by fault simulation, detects every
//     fault the baseline calls Detected and none it calls Untestable.
//
// tr records the re-grading as the sim.check_grade span under parent.
func checkReport(r *flow.Report, tr *tracer, parent int) error {
	if s := r.Summarize(); s.OverCounted == 0 {
		return fmt.Errorf("no fault is both detected full-scan and functionally untestable (%d func-untestable)",
			s.FuncUntestable)
	}
	for _, fid := range r.FaultsClassified(flow.FuncUntestable) {
		ev, ok := r.Evidence(fid)
		var st fault.Status
		switch {
		case !ok:
			return fmt.Errorf("func-untestable fault %d cites no evidence", fid)
		case ev == flow.EvidenceFullScan:
			st = r.Baseline.Status.Get(fid)
		default:
			st = r.Scenarios[ev].Projected.Get(fid)
		}
		if st != fault.Untestable {
			return fmt.Errorf("func-untestable fault %d cites %s, which says %v", fid, r.EvidenceName(fid), st)
		}
	}

	sp := tr.start("sim.check_grade", parent)
	g, err := sim.NewGrader(r.N, r.Universe)
	var det, unt []fault.FID
	var simDet, simUnt int
	if err == nil {
		det = r.Baseline.Status.FaultsWith(fault.Detected)
		unt = r.Baseline.Status.FaultsWith(fault.Untestable)
		simDet = g.Grade(r.Baseline.Patterns, r.Baseline.States, det).Count()
		simUnt = g.Grade(r.Baseline.Patterns, r.Baseline.States, unt).Count()
	}
	tr.stop(sp)
	switch {
	case err != nil:
		return fmt.Errorf("grader: %w", err)
	case simDet != len(det):
		return fmt.Errorf("the baseline test set detects %d of the %d faults the baseline calls Detected",
			simDet, len(det))
	case simUnt != 0:
		return fmt.Errorf("the baseline test set detects %d faults the baseline calls Untestable", simUnt)
	}
	return nil
}

// checkResumed is the output check of a resumed campaign: it restored every
// provider from the journal instead of running it, and classifies every
// fault exactly as the campaign it resumes (digest).
func checkResumed(r *flow.Report, digest string, providers int) error {
	if len(r.Resumed) != providers {
		return fmt.Errorf("resume skipped %d of %d providers (%v)", len(r.Resumed), providers, r.Resumed)
	}
	if d := r.ClassDigest(); d != digest {
		return fmt.Errorf("resumed class digest %.12s differs from the campaign's (%.12s)", d, digest)
	}
	return nil
}

// abortedClasses sums the classes a report leaves Aborted over the baseline
// and every scenario, a swept scenario counting its converged outcome.
func abortedClasses(r *flow.Report) int {
	n := r.Baseline.Stats.Aborted
	for _, sr := range r.Scenarios {
		n += sr.Outcome.Stats.Aborted
	}
	return n
}
