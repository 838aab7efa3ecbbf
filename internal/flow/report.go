package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"olfui/internal/fault"
)

// Summary condenses a Report into the numbers the paper's flow delivers.
type Summary struct {
	Faults           int // original (uncollapsed) universe size
	FullScanDetected int // faults the full-scan baseline detects
	FuncUntestable   int // faults proven functionally untestable
	// OverCounted is the intersection: detected by full-scan ATPG yet
	// functionally untestable. These are the faults an on-line self-test
	// is wrongly graded against.
	OverCounted int
	Unresolved  int
	// MissionDetected counts faults detected by graded mission pattern
	// sets that the corrected target keeps (0 when the campaign ran
	// without a PatternProvider). Detections of FuncUntestable faults are
	// excluded: the stem-attribution convention can classify a fault
	// untestable although its net is live on the original netlist the
	// stimuli are graded on, and counting such detections would push
	// MissionCoverage past 100%. Measured against CorrectedTarget this
	// closes the loop between identified untestable faults and achieved
	// on-line coverage.
	MissionDetected int
}

// Summarize computes the Summary of a report.
func (r *Report) Summarize() Summary {
	s := Summary{Faults: r.Universe.NumFaults()}
	for id, cl := range r.Class {
		fid := fault.FID(id)
		det := r.Baseline.Status.Get(fid) == fault.Detected
		if det {
			s.FullScanDetected++
		}
		switch cl {
		case FuncUntestable:
			s.FuncUntestable++
			if det {
				s.OverCounted++
			}
		case Unresolved:
			s.Unresolved++
		}
	}
	if r.PatternDetected != nil {
		r.PatternDetected.ForEach(func(fid fault.FID) {
			if r.Class[fid] != FuncUntestable {
				s.MissionDetected++
			}
		})
	}
	return s
}

// MissionCoverage grades the pattern-set detections against the corrected
// target — the measured on-line coverage of the imported mission stimuli.
func (s Summary) MissionCoverage() float64 {
	target := s.CorrectedTarget()
	if target == 0 {
		return 0
	}
	return float64(s.MissionDetected) / float64(target)
}

// FullScanCoverage is the classic fault coverage: detected / all faults.
func (s Summary) FullScanCoverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.FullScanDetected) / float64(s.Faults)
}

// CorrectedTarget is the paper's corrected on-line coverage target
// denominator: the universe minus the functionally untestable faults.
func (s Summary) CorrectedTarget() int { return s.Faults - s.FuncUntestable }

// CorrectedCoverage re-grades the full-scan detections against the corrected
// target: functionally untestable faults count neither as detected nor as
// targets. This is the achievable ceiling for an on-line functional test.
func (s Summary) CorrectedCoverage() float64 {
	target := s.CorrectedTarget()
	if target == 0 {
		return 0
	}
	return float64(s.FullScanDetected-s.OverCounted) / float64(target)
}

// ClassDigest fingerprints the per-fault classification array (sha256 over
// Class in fault-ID order) — the equality the worker-count invariance
// properties pin, and what olfuid's resume smoke compares
// across a kill and restart. Two reports with equal digests classified
// every fault of the universe identically.
func (r *Report) ClassDigest() string {
	b := make([]byte, len(r.Class))
	for i, c := range r.Class {
		b[i] = byte(c)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String renders the full report: per-scenario ATPG stats, the
// classification tally, and the coverage-target correction.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow report for %q: %d faults\n", r.N.Name, r.Universe.NumFaults())
	fmt.Fprintf(&b, "  baseline (full-scan): %v\n", r.Baseline.Stats)
	for _, sr := range r.Scenarios {
		var ts []string
		for _, t := range sr.Scenario.Transforms {
			ts = append(ts, t.Describe())
		}
		inj := ""
		if !sr.Sites.Empty() {
			// Time-expanded scenario: faults were injected jointly at every
			// frame replica, so untestability is about the permanent fault.
			inj = fmt.Sprintf(" inj=multi-frame(%d replicas)", sr.Sites.Len())
		}
		fmt.Fprintf(&b, "  scenario %q [%s] obs=%d%s: %v\n",
			sr.Scenario.Name, strings.Join(ts, " "), len(sr.Obs), inj, sr.Outcome.Stats)
		if sw := sr.Sweep; sw != nil {
			status := fmt.Sprintf("stopped at the %d-frame budget", sw.FinalFrames)
			if sw.Converged {
				status = fmt.Sprintf("converged at k=%d (projected untestable set stable across two depths)",
					sw.FinalFrames)
			}
			fmt.Fprintf(&b, "    depth sweep %s:\n", status)
			for _, d := range sw.Depths {
				replay := ""
				if d.ReplayPatterns > 0 {
					replay = fmt.Sprintf(" [replay: %d patterns dropped %d classes in %v]",
						d.ReplayPatterns, d.ReplayDropped, time.Duration(d.ReplayNS))
				}
				fmt.Fprintf(&b, "      k=%d: %4d classes targeted, %3d new untestable (cum %3d), %v%s\n",
					d.Frames, d.Classes, d.NewUntestable, d.CumUntestable, d.Stats, replay)
			}
		}
	}
	s := r.Summarize()
	fmt.Fprintf(&b, "  classification: %d full-scan-testable, %d func-untestable (%d of them detected full-scan), %d unresolved\n",
		s.Faults-s.FuncUntestable-s.Unresolved, s.FuncUntestable, s.OverCounted, s.Unresolved)
	fmt.Fprintf(&b, "  full-scan coverage:        %d/%d = %.2f%%\n",
		s.FullScanDetected, s.Faults, 100*s.FullScanCoverage())
	fmt.Fprintf(&b, "  corrected on-line target:  %d faults (%d excluded)\n",
		s.CorrectedTarget(), s.FuncUntestable)
	fmt.Fprintf(&b, "  corrected coverage:        %d/%d = %.2f%%\n",
		s.FullScanDetected-s.OverCounted, s.CorrectedTarget(), 100*s.CorrectedCoverage())
	if r.PatternDetected != nil {
		fmt.Fprintf(&b, "  mission pattern coverage:  %d/%d = %.2f%%\n",
			s.MissionDetected, s.CorrectedTarget(), 100*s.MissionCoverage())
	}
	return b.String()
}
