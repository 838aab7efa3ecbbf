package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/obs"
)

// traced runs the per-layer campaign with the untraced campaigns' inputs
// and configuration. The benchmark records a span around each of its calls
// into a package, attaches the program's span tree under the RunCampaign
// span, and times the journal layer over the finished campaign journal:
// this campaign's on a journaling workload, the warm-up campaign's (in
// warm) elsewhere. untraced is the untraced campaign_s, which the traced
// campaign is compared with at the same scale: the reference workload runs
// just before and after it. The spans are written once, at the end; the
// error is for a trace that could not be written.
func (r *runner) traced(warm string, untraced float64) (map[string]float64, error) {
	tr := &tracer{run: fmt.Sprintf("%s-seed%d-%d", r.w.name, r.cfg.seed, time.Now().UnixNano())}
	root := tr.start("perfbench:"+r.w.name, -1)
	journalDir, finished := "", warm
	if r.w.journal {
		journalDir = r.dir("traced")
		finished = journalDir
	}
	sp := tr.start("reference", root)
	before := r.ref.run()
	tr.stop(sp)
	o, ok := r.campaign(journalDir, tr, root)
	sp = tr.start("reference", root)
	after := r.ref.run()
	tr.stop(sp)
	if !ok {
		return zeros(perLayer), nil
	}
	sp = tr.start("fault.collapse", root)
	classes := fault.NewCollapse(o.report.Universe).NumClasses()
	tr.stop(sp)
	r.attempted++
	sp = tr.start("journal", root)
	deltas, size, err := journalLayer(finished, r.dir("recover"), r.dir("append"), tr, sp)
	tr.stop(sp)
	tr.stop(root)
	if err != nil {
		r.fail("journal layer", err)
	}

	campaign := tr.seconds("flow.campaign")
	v := snapshotMetrics(o.snap, r.w.backtrackLimit(), r.w.workers, campaign)
	v["bench.build_s"] = tr.seconds("bench.build")
	v["fault.universe_s"] = tr.seconds("fault.universe")
	v["fault.faults"] = float64(o.report.Universe.NumFaults())
	v["fault.classes"] = float64(classes)
	v["fault.collapse_s"] = tr.seconds("fault.collapse")
	v["sim.check_grade_s"] = tr.seconds("sim.check_grade")
	v["mission_coverage_pct"] = 100 * o.report.Summarize().MissionCoverage()
	v["flow.campaign_s"] = campaign
	v["flow.sweep.replay.hit_pct"] = replayHitPct(o.report)
	v["trace.overhead_pct"] = pct(o.scaledWall(scale(before, after))-untraced, untraced)
	v["journal.open_s"] = tr.seconds("journal.open")
	v["journal.append_s"] = tr.seconds("journal.append")
	v["journal.recover_s"] = tr.seconds("journal.recover")
	v["journal.deltas"] = float64(deltas)
	v["journal.bytes"] = float64(size)
	path := filepath.Join(r.cfg.out, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write span trace: %w", err)
	}
	return v, nil
}

// journalLayer times the journal over the finished campaign journal in
// src: recovery (journal.Open over a copy in recoverDir, as the campaign
// left it), a fresh Open in appendDir, and re-appending the recovered
// delta stream there under the default fsync policy. It returns the number
// of recovered deltas and the journal's size in bytes.
func journalLayer(src, recoverDir, appendDir string, tr *tracer, parent int) (int, int64, error) {
	size, err := copyDir(src, recoverDir)
	if err != nil {
		return 0, 0, err
	}
	sp := tr.start("journal.recover", parent)
	j, err := journal.Open(recoverDir, journal.Options{})
	tr.stop(sp)
	if err != nil {
		return 0, size, err
	}
	st := j.Recovered()
	if err := j.Close(); err != nil {
		return 0, size, err
	}
	if st == nil {
		return 0, size, fmt.Errorf("journal %s recovered nothing", src)
	}
	sp = tr.start("journal.open", parent)
	out, err := journal.Open(appendDir, journal.Options{})
	tr.stop(sp)
	if err != nil {
		return 0, size, err
	}
	sp = tr.start("journal.append", parent)
	for _, d := range st.Deltas {
		if err = out.AppendDelta(d.Channel, d.Provider, d.D); err != nil {
			break
		}
	}
	tr.stop(sp)
	return len(st.Deltas), size, errors.Join(err, out.Close())
}

// snapshotMetrics reads the per-layer metrics a campaign's registry
// snapshot holds (source R) and derives the ratios over them (source D).
// limit is the backtrack limit, workers the campaign's worker budget and
// campaign the traced RunCampaign's seconds.
func snapshotMetrics(s *obs.Snapshot, limit, workers int, campaign float64) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counter(name)) }
	h := func(name string) obs.HistogramSnapshot { return s.Histograms[name] }
	sum := func(name string) float64 { return float64(h(name).Sum) / 1e9 }
	search, busy := sum("atpg.search_ns"), sum("sched.worker_busy_ns")
	v := map[string]float64{
		"constraint.unroll.build_s":  sum("constraint.unroll.build_ns"),
		"constraint.unroll.extend_s": sum("constraint.unroll.extend_ns"),
		"atpg.search_s":              search,
		"atpg.searches":              float64(h("atpg.search_ns").Count),
		"atpg.search_max_s":          float64(h("atpg.search_ns").Max) / 1e9,
		"atpg.abort_backtrack_pct":   pct(c("atpg.abort.limit")*float64(limit+1), c("atpg.backtracks")),
		"atpg.implications_per_s":    ratio(c("atpg.implications"), search),
		"learn.build_s":              sum("learn.build_ns"),
		"learn.extend_s":             sum("learn.extend_ns"),
		"learn.screen_pct":           pct(c("atpg.learned_untestable"), c("atpg.classes.untestable")),
		"atpg.drop_pct":              pct(c("atpg.classes.sim_dropped"), c("atpg.classes")),
		"atpg.drop.hit_pct":          pct(c("atpg.drop.hits"), c("atpg.drop.graded")),
		"flow.patterns.grade_s":      patternGradeSeconds(s),
		"sched.worker_busy_s":        busy,
		"sched.queue_wait_s":         c("sched.queue_wait_ns") / 1e9,
		"sched.utilization_pct":      pct(busy, float64(workers)*campaign),
		"flow.prep_s":                sum("flow.prep_ns"),
		"flow.merge_wait_s":          sum("flow.merge_wait_ns"),
		"flow.sweep.depth_s":         sum("flow.sweep.depth_ns"),
		"flow.sweep.depths":          float64(h("flow.sweep.depth_ns").Count),
		"flow.sweep.replay.grade_s":  sum("flow.sweep.replay.grade_ns"),
	}
	for _, name := range []string{
		"atpg.backtracks", "atpg.decisions", "atpg.implications", "atpg.abort.limit",
		"atpg.classes", "atpg.classes.aborted", "learn.facts", "atpg.learned_untestable",
		"atpg.classes.sim_dropped", "atpg.drop.graded", "atpg.drop.hits",
		"sim.grade.words", "sim.grade.fault_evals", "sim.grade.screened",
		"sim.gradeseq.words", "sim.gradeseq.cycles", "sim.gradeseq.lanes",
		"sched.chunks", "sched.steals", "sched.requeues", "sched.workers.peak",
		"flow.deltas", "flow.delta_entries", "flow.sweep.replay.patterns", "flow.sweep.replay.dropped",
	} {
		v[name] = c(name)
	}
	return v
}

// patternGradeSeconds sums the set:* spans under provider:patterns: the
// pattern provider's sequential grading of each imported set.
func patternGradeSeconds(s *obs.Snapshot) float64 {
	p := s.FindSpan("provider:patterns")
	if p == nil {
		return 0
	}
	var ns int64
	for _, set := range p.Children {
		if strings.HasPrefix(set.Name, "set:") {
			ns += set.DurNS
		}
	}
	return float64(ns) / 1e9
}

// replayHitPct is the share of the classes a depth sweep targeted after its
// first depth (which has no pattern pool to replay) that the cross-depth
// replay dropped before search; 0 without a sweep.
func replayHitPct(r *flow.Report) float64 {
	var dropped, targeted float64
	for _, sr := range r.Scenarios {
		if sr.Sweep == nil || len(sr.Sweep.Depths) < 2 {
			continue
		}
		for _, d := range sr.Sweep.Depths[1:] {
			dropped += float64(d.ReplayDropped)
			targeted += float64(d.Classes)
		}
	}
	return pct(dropped, targeted)
}

// ratio returns a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct returns a/b in percent, or 0 when b is 0.
func pct(a, b float64) float64 { return 100 * ratio(a, b) }
