package main

import (
	"fmt"
	"io"
	"slices"
)

// spec is one catalogued metric: its name and unit, as printed and as
// BENCHMARK.json lists them, which direction is better, and what it is. A
// per-layer definition starts with the value's source and ends with the
// end-to-end metric it should move, on which workload. The sources are
// S, a span or count the benchmark records around its own call into a
// package; R, a value read from the traced campaign's obs.Snapshot; D, a
// ratio derived from the other two; and report, a value of the traced
// campaign's flow.Report. A layer that does not run on a workload reports 0
// there.
type spec struct {
	name, unit, better, def string
}

// endToEnd are the metrics a user of olfui or olfuid sees, measured with
// tracing off: each is the median of the run's samples, except peak RSS.
// The four times are scaled to the reference host (reference.go says why),
// the wall times only in the part spent on a CPU (cost.scaledWall).
var endToEnd = []spec{
	{"campaign_s", "s", "lower", "wall seconds from RunCampaign to its Report, scaled to the reference host"},
	{"cpu_s", "s", "lower", "process user+sys CPU seconds per campaign, scaled to the reference host"},
	{"setup_s", "s", "lower", "wall seconds to build and validate the design and enumerate its universe, plus the fresh journal.Open on wide-sweep, scaled to the reference host"},
	{"resume_s", "s", "lower", "wall seconds from journal.Open over a copy of a finished campaign journal (each campaign's own on wide-sweep, the warm-up campaign's elsewhere) to the resumed Report, every provider skipped, scaled to the reference host"},
	{"alloc_mb", "MiB", "lower", "heap MiB allocated per campaign (runtime.MemStats.TotalAlloc delta)"},
	{"peak_rss_mb", "MiB", "lower", "process peak RSS at the end of the run"},
	{"aborted_classes", "count", "lower", "classes left Aborted, summed over the baseline and every scenario (a swept scenario's converged outcome)"},
	{"func_untestable", "count", "higher", "Summary.FuncUntestable"},
}

// perLayer are the metrics of single layers, from the one traced campaign
// of a -trace 1 run.
var perLayer = []spec{
	// bench, netlist and fault: set-up.
	{"bench.build_s", "s", "lower", "S: bench.Build plus Netlist.Validate; moves setup_s on every workload"},
	{"fault.universe_s", "s", "lower", "S: fault.NewUniverse; moves setup_s on every workload"},
	{"fault.faults", "count", "lower", "S: faults in the universe; moves setup_s on every workload"},
	{"fault.classes", "count", "lower", "S: collapsed fault classes; moves setup_s on every workload"},
	{"fault.collapse_s", "s", "lower", "S: fault.NewCollapse on the original universe; moves campaign_s on wide-sweep, where every provider and depth recomputes it"},
	// constraint.
	{"constraint.unroll.build_s", "s", "lower", "R: sum of constraint.unroll.build_ns; moves campaign_s on wide-sweep"},
	{"constraint.unroll.extend_s", "s", "lower", "R: sum of constraint.unroll.extend_ns; moves campaign_s on wide-sweep"},
	// atpg search.
	{"atpg.search_s", "s", "lower", "R: sum of atpg.search_ns; moves campaign_s, cpu_s and aborted_classes on abort-tail"},
	{"atpg.searches", "count", "lower", "R: count of atpg.search_ns; moves campaign_s, cpu_s and aborted_classes on abort-tail"},
	{"atpg.search_max_s", "s", "lower", "R: max of atpg.search_ns; moves campaign_s on abort-tail"},
	{"atpg.backtracks", "count", "lower", "R; moves campaign_s, cpu_s and aborted_classes on abort-tail"},
	{"atpg.decisions", "count", "lower", "R; moves campaign_s and cpu_s on abort-tail"},
	{"atpg.implications", "count", "lower", "R; moves campaign_s and cpu_s on abort-tail"},
	{"atpg.abort.limit", "count", "lower", "R: searches aborted at the backtrack limit; moves aborted_classes on abort-tail"},
	{"atpg.classes", "count", "lower", "R: classes targeted; moves campaign_s on abort-tail"},
	{"atpg.classes.aborted", "count", "lower", "R; moves aborted_classes on abort-tail"},
	{"atpg.abort_backtrack_pct", "%", "lower", "D: atpg.abort.limit x (limit+1) / atpg.backtracks, the search effort spent on classes left unresolved; moves campaign_s and cpu_s on abort-tail"},
	{"atpg.implications_per_s", "1/s", "higher", "D: atpg.implications / atpg.search_s, engine speed whatever the number of searches; moves campaign_s on abort-tail and wide-sweep"},
	// atpg learning.
	{"learn.build_s", "s", "lower", "R: sum of learn.build_ns; moves campaign_s on wide-sweep"},
	{"learn.extend_s", "s", "lower", "R: sum of learn.extend_ns; moves campaign_s on wide-sweep"},
	{"learn.facts", "count", "higher", "R; moves campaign_s on wide-sweep"},
	{"atpg.learned_untestable", "count", "higher", "R: classes the learning screen proved untestable before search; moves campaign_s on wide-sweep"},
	{"learn.screen_pct", "%", "higher", "D: atpg.learned_untestable / atpg.classes.untestable; moves campaign_s on wide-sweep"},
	// sim PPSFP grading and atpg fault dropping.
	{"atpg.classes.sim_dropped", "count", "higher", "R; moves campaign_s on wide-sweep and about nothing on abort-tail"},
	{"atpg.drop.graded", "count", "lower", "R: faults the drop grader was asked about; moves campaign_s on wide-sweep"},
	{"atpg.drop.hits", "count", "higher", "R; moves campaign_s on wide-sweep"},
	{"sim.grade.words", "count", "lower", "R; moves campaign_s on wide-sweep"},
	{"sim.grade.fault_evals", "count", "lower", "R; moves campaign_s on wide-sweep"},
	{"sim.grade.screened", "count", "higher", "R: fault evaluations the activation screen skipped; moves campaign_s on wide-sweep"},
	{"atpg.drop_pct", "%", "higher", "D: atpg.classes.sim_dropped / atpg.classes; moves campaign_s on wide-sweep"},
	{"atpg.drop.hit_pct", "%", "higher", "D: atpg.drop.hits / atpg.drop.graded; moves campaign_s on wide-sweep"},
	{"sim.check_grade_s", "s", "lower", "S: the output check's sim.NewGrader plus Grader.Grade over the baseline test set, the drop grader timed from outside; moves campaign_s on wide-sweep"},
	// sim sequential grading.
	{"sim.gradeseq.words", "count", "lower", "R; moves campaign_s and cpu_s on mission-import"},
	{"sim.gradeseq.cycles", "count", "lower", "R; moves campaign_s and cpu_s on mission-import"},
	{"sim.gradeseq.lanes", "count", "lower", "R; moves campaign_s and cpu_s on mission-import"},
	{"flow.patterns.grade_s", "s", "lower", "R: sum of the set:* spans under provider:patterns; moves campaign_s and cpu_s on mission-import"},
	{"mission_coverage_pct", "%", "higher", "report: 100 x Summary.MissionCoverage, the graded traces' coverage of the corrected target; the closing loop's result on mission-import"},
	// sched.
	{"sched.worker_busy_s", "s", "lower", "R: sum of sched.worker_busy_ns; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.queue_wait_s", "s", "lower", "R: sched.queue_wait_ns; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.chunks", "count", "lower", "R; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.steals", "count", "lower", "R; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.requeues", "count", "lower", "R; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.workers.peak", "count", "higher", "R: most searches in flight at once; moves campaign_s against cpu_s on wide-sweep"},
	{"sched.utilization_pct", "%", "higher", "D: sched.worker_busy_s / (workers x flow.campaign_s); moves campaign_s against cpu_s on wide-sweep"},
	// flow.
	{"flow.campaign_s", "s", "lower", "S: the traced RunCampaign; moves campaign_s on every workload"},
	{"flow.prep_s", "s", "lower", "R: sum of flow.prep_ns; moves campaign_s on wide-sweep"},
	{"flow.merge_wait_s", "s", "lower", "R: sum of flow.merge_wait_ns; moves campaign_s on wide-sweep"},
	{"flow.deltas", "count", "lower", "R; moves campaign_s on wide-sweep"},
	{"flow.delta_entries", "count", "lower", "R; moves campaign_s on wide-sweep"},
	{"flow.sweep.depth_s", "s", "lower", "R: sum of flow.sweep.depth_ns; moves campaign_s on wide-sweep"},
	{"flow.sweep.depths", "count", "lower", "R: depths swept, the count of flow.sweep.depth_ns; moves campaign_s on wide-sweep"},
	{"flow.sweep.replay.grade_s", "s", "lower", "R: sum of flow.sweep.replay.grade_ns; moves campaign_s on wide-sweep"},
	{"flow.sweep.replay.patterns", "count", "lower", "R; moves campaign_s on wide-sweep"},
	{"flow.sweep.replay.dropped", "count", "higher", "R; moves campaign_s on wide-sweep"},
	{"flow.sweep.replay.hit_pct", "%", "higher", "D: replay drops / classes targeted after the first depth, from ScenarioResult.Sweep; moves campaign_s on wide-sweep"},
	{"trace.overhead_pct", "%", "lower", "D: the traced flow.campaign_s, scaled by the reference workload run around it, against the untraced campaign_s; should move nothing"},
	// journal, with wire.
	{"journal.open_s", "s", "lower", "S: a fresh journal.Open; moves setup_s on wide-sweep"},
	{"journal.append_s", "s", "lower", "S: re-appending the recovered delta stream to a scratch journal under the default fsync policy; moves campaign_s on wide-sweep"},
	{"journal.recover_s", "s", "lower", "S: journal.Open over the finished campaign journal; moves resume_s on every workload"},
	{"journal.deltas", "count", "lower", "S: deltas recovered from the finished journal; moves resume_s on every workload"},
	{"journal.bytes", "B", "lower", "S: size of the finished journal; moves resume_s on every workload"},
}

// metrics pairs each metric of specs with its value and unit. values must
// hold exactly the names of specs.
func metrics(specs []spec, values map[string]float64) (map[string]metric, error) {
	m := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("no value measured for metric %s", s.name)
		}
		m[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(values) != len(m) {
		return nil, fmt.Errorf("%d values measured for %d catalogued metrics", len(values), len(m))
	}
	return m, nil
}

// zeros gives every metric of specs the value 0: what a run reports for
// layers it could not measure, alongside the failure that stopped it.
func zeros(specs []spec) map[string]float64 {
	v := make(map[string]float64, len(specs))
	for _, s := range specs {
		v[s.name] = 0
	}
	return v
}

// printMetrics writes one line per metric in catalog order: name, value
// and unit and, for a median, its sample count and range and, for a scaled
// time, the unscaled median.
func printMetrics(w io.Writer, specs []spec, values map[string]float64, s samples) {
	for _, spec := range specs {
		fmt.Fprintf(w, "  %-28s %14.6g %-5s", spec.name, values[spec.name], spec.unit)
		if xs := s.reported[spec.name]; len(xs) > 0 {
			fmt.Fprintf(w, "  median of %d, range %.6g .. %.6g", len(xs), slices.Min(xs), slices.Max(xs))
		}
		if xs := s.raw[spec.name]; len(xs) > 0 {
			fmt.Fprintf(w, "; unscaled median %.6g", median(xs))
		}
		fmt.Fprintln(w)
	}
}
