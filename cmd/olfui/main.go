// Command olfui runs the paper's identification flow end-to-end over a
// dp-built benchmark circuit: a small ALU datapath with a scan chain, a
// one-hot-decoded operation field, and a write-only trace register — the
// structures whose faults full-scan ATPG counts as testable although no
// mission-mode stimulus can expose them. It drives the campaign API —
// running the providers under a shared worker budget (-workers; each
// provider searches one class at a time), sweeping the reach-constrained
// scenario to adaptively chosen sequential depth (-sweep, -max-frames) and
// grading imported mission stimuli (-patterns) — prints per-scenario ATPG
// stats (with a per-depth convergence table for swept scenarios), the fault
// classification, and the coverage-target correction, and exits non-zero if
// any internal cross-check fails.
//
// Every run records engine, simulator and campaign telemetry into an
// internal/obs registry (always on; the recording cost is atomic ops on the
// hot paths). Three flags surface it:
//
//	-metrics-out file.json  write the final registry snapshot — counters,
//	                        latency histograms and the campaign span tree
//	                        (one span per provider, per sweep depth) — as
//	                        JSON when the run exits, even on failure
//	-pprof addr             serve net/http/pprof under /debug/pprof/ and a
//	                        live JSON snapshot under /metrics while running
//	-progress               print per-provider completion lines and a
//	                        once-per-second rate summary (classes/s, live
//	                        and queued classes, ETA) on stderr, leaving
//	                        stdout to the report
//
// Before searching, every provider's screen stage retires the classes a
// ternary constant or the lack of any combinational path to an observation
// point proves untestable (see ARCHITECTURE.md "Screen stage &
// cone-restricted search"); the report's "screen:" line counts them by rule.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// config collects the command-line knobs.
type config struct {
	width      int
	workers    int
	limit      int
	frames     int
	sweep      bool   // adaptive sequential-depth sweep of the reach scenario
	maxFrames  int    // sweep depth budget; 0 defaults, implies -sweep when set
	patterns   string // stimulus file for the pattern-import provider
	progress   bool
	selfcheck  bool
	metricsOut string // telemetry snapshot JSON path, written on exit
	pprofAddr  string // debug server address (pprof + /metrics)
	journalDir string // durable delta journal directory ("" = no journal)
	resume     bool   // continue the campaign the journal recovered
}

// validate rejects inconsistent flag combinations with a one-line error
// before any netlist, transform or provider work starts.
func (cfg config) validate() error {
	if cfg.width < 1 {
		return fmt.Errorf("-width must be >= 1, got %d", cfg.width)
	}
	if cfg.frames < 1 {
		return fmt.Errorf("-frames must be >= 1, got %d", cfg.frames)
	}
	if cfg.maxFrames != 0 && cfg.maxFrames < cfg.frames {
		return fmt.Errorf("-max-frames (%d) must be >= -frames (%d)", cfg.maxFrames, cfg.frames)
	}
	if cfg.resume && cfg.journalDir == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	return nil
}

// sweepBudget resolves the sweep's depth budget: 0 when sweeping is off,
// -max-frames when set (setting it implies -sweep), -frames+4 otherwise.
func (cfg config) sweepBudget() int {
	if cfg.maxFrames > 0 {
		return cfg.maxFrames
	}
	if cfg.sweep {
		return cfg.frames + 4
	}
	return 0
}

func main() {
	var cfg config
	flag.IntVar(&cfg.width, "width", 8, "datapath width")
	flag.IntVar(&cfg.workers, "workers", 0,
		"searches in flight across providers (0 = NumCPU); each ATPG provider searches one class at a time, "+
			"so a budget above the number of ATPG providers leaves slots unused")
	flag.IntVar(&cfg.limit, "limit", 0, "backtrack limit (0 = default)")
	flag.IntVar(&cfg.frames, "frames", 2, "time frames for the reach-constrained scenario")
	flag.BoolVar(&cfg.sweep, "sweep", false,
		"adaptively deepen the reach scenario frame by frame until its projected untestable set converges")
	flag.IntVar(&cfg.maxFrames, "max-frames", 0,
		"depth budget for the sweep (0 = -frames+4); setting it implies -sweep")
	flag.StringVar(&cfg.patterns, "patterns", "", "mission stimulus file to grade (see cmd/olfui/patterns.go for the format)")
	flag.BoolVar(&cfg.progress, "progress", false, "print per-provider delta merges and completions")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false,
		"exhaustively verify sampled untestability verdicts (small widths only)")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "",
		"write the final telemetry snapshot (counters, histograms, span tree) to this JSON file")
	flag.StringVar(&cfg.pprofAddr, "pprof", "",
		"serve net/http/pprof and a /metrics JSON endpoint on this address while running")
	flag.StringVar(&cfg.journalDir, "journal", "",
		"journal every committed delta to this directory so an interrupted run can be resumed")
	flag.BoolVar(&cfg.resume, "resume", false,
		"resume the campaign recovered from -journal, skipping providers that already finished")
	flag.Parse()

	if err := run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "olfui:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	reg := obs.New()
	if cfg.pprofAddr != "" {
		addr, stop, err := startDebugServer(cfg.pprofAddr, reg)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "olfui: debug server on http://%s (/debug/pprof/, /metrics)\n", addr)
	}
	err := runReport(ctx, cfg, reg)
	if cfg.metricsOut != "" {
		// The snapshot is written even when the run failed — a partial
		// registry is exactly what post-mortems want.
		if werr := writeMetrics(cfg.metricsOut, reg); werr != nil && err == nil {
			err = fmt.Errorf("write metrics: %w", werr)
		}
	}
	return err
}

// runReport executes the campaign and renders the report and checks.
func runReport(ctx context.Context, cfg config, reg *obs.Registry) error {
	r, sweepChecks, err := runCampaign(ctx, cfg, reg)
	if err != nil {
		return err
	}
	fmt.Print(r.String())
	if len(r.Resumed) > 0 {
		fmt.Printf("  resumed: skipped %d already-completed providers (%s)\n",
			len(r.Resumed), strings.Join(r.Resumed, ", "))
	}

	// Screened classes are summed over every GenerateAll of the campaign:
	// the baseline, each scenario clone and each sweep depth.
	fmt.Printf("  screen: %d constant, %d unobservable classes retired before search\n",
		reg.Counter("atpg.screen.constant").Load(), reg.Counter("atpg.screen.unobservable").Load())
	if pats := reg.Counter("flow.warm.patterns").Load(); pats > 0 {
		fmt.Printf("  warm start: %d baseline tests replayed on scenario clones, %d classes dropped before search\n",
			pats, reg.Counter("flow.warm.dropped").Load())
	}
	if pats := reg.Counter("flow.sweep.replay.patterns").Load(); pats > 0 {
		fmt.Printf("  replay: %d patterns replayed across depths, %d classes dropped before search\n",
			pats, reg.Counter("flow.sweep.replay.dropped").Load())
	}
	printExamples(r, r.Universe)
	if err := crossCheck(r, r.Universe); err != nil {
		return err
	}
	if cfg.selfcheck {
		for _, line := range sweepChecks {
			fmt.Println(line)
		}
		lines, err := scenarioSelfchecks(r)
		if err != nil {
			return err
		}
		for _, line := range lines {
			fmt.Println(line)
		}
	}
	fmt.Println("OK")
	return nil
}

// runCampaign assembles the benchmark and its mission scenarios and executes
// the identification campaign, returning the report for run to render (and
// for tests to compare across worker and sweep configurations) plus the
// per-depth sweep selfcheck lines collected while the campaign ran. reg
// receives the run's telemetry; nil runs uninstrumented.
func runCampaign(ctx context.Context, cfg config, reg *obs.Registry) (*flow.Report, []string, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	n := bench.Build(cfg.width)
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	fmt.Println(n.CollectStats())
	u := fault.NewUniverse(n)
	scenarios := bench.Scenarios(cfg.frames)

	opts := flow.Options{
		ATPG:      atpg.Options{BacktrackLimit: cfg.limit},
		Workers:   cfg.workers,
		MaxFrames: cfg.sweepBudget(),
		Metrics:   reg,
	}
	var sweepChecks []string
	if cfg.selfcheck && opts.MaxFrames > 0 {
		opts.SweepOnDepth = sweepSelfcheck(&sweepChecks)
	}
	if cfg.patterns != "" {
		sets, err := loadPatternSets(n, cfg.patterns)
		if err != nil {
			return nil, nil, err
		}
		opts.Patterns = sets
	}
	if cfg.progress {
		pr := newProgressReporter(os.Stderr, reg, time.Second)
		defer pr.stopAndFlush()
		opts.Progress = pr.event
	}
	if cfg.journalDir != "" {
		j, err := journal.Open(cfg.journalDir, journal.Options{})
		if err != nil {
			return nil, nil, err
		}
		defer j.Close()
		if j.Recovered() != nil && !cfg.resume {
			return nil, nil, fmt.Errorf(
				"journal %s holds a previous campaign; pass -resume to continue it or point -journal at an empty directory",
				cfg.journalDir)
		}
		if cfg.resume && j.Recovered() == nil {
			fmt.Fprintf(os.Stderr, "olfui: journal %s has nothing to resume; starting fresh\n", cfg.journalDir)
		}
		opts.Journal = j
	}

	r, err := flow.RunCampaign(ctx, n, u, scenarios, opts)
	return r, sweepChecks, err
}

// sweepSelfcheck builds the per-depth observer -selfcheck wires into a swept
// campaign: at every depth, every untestability verdict of the depth is
// exhaustively re-proven on the live clone under the current multi-frame
// injection map — synchronously, before the clone is extended further. The
// summary lines are collected for run to print with the other selfchecks.
func sweepSelfcheck(lines *[]string) func(string, flow.SweepDepth) error {
	return func(name string, d flow.SweepDepth) error {
		line, err := reproveUntestable(fmt.Sprintf("sweep selfcheck %q k=%d", name, d.Frames),
			d.Clone, d.Obs, d.Universe, d.Status, d.Sites)
		if err != nil {
			return err
		}
		*lines = append(*lines, line)
		return nil
	}
}

// printExamples lists a few faults of the paper's headline category:
// detected by full-scan ATPG yet functionally untestable.
func printExamples(r *flow.Report, u *fault.Universe) {
	fmt.Println("  over-counted fault examples (full-scan detected, functionally untestable):")
	shown := 0
	for _, fid := range r.FaultsClassified(flow.FuncUntestable) {
		if r.Baseline.Status.Get(fid) != fault.Detected {
			continue
		}
		fmt.Printf("    %-28s evidence: %s\n", u.Describe(u.FaultOf(fid)), r.EvidenceName(fid))
		if shown++; shown >= 5 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("    (none)")
	}
}

// crossCheck enforces the flow's internal invariants.
func crossCheck(r *flow.Report, u *fault.Universe) error {
	s := r.Summarize()
	if s.OverCounted == 0 {
		return fmt.Errorf("cross-check: benchmark produced no over-counted faults")
	}
	for _, fid := range r.FaultsClassified(flow.FuncUntestable) {
		ev, ok := r.Evidence(fid)
		if !ok {
			return fmt.Errorf("cross-check: fault %d lacks evidence", fid)
		}
		if ev == flow.EvidenceFullScan {
			if st := r.Baseline.Status.Get(fid); st != fault.Untestable {
				return fmt.Errorf("cross-check: fault %d cites full-scan but baseline says %v", fid, st)
			}
		} else if st := r.Scenarios[ev].Projected.Get(fid); st != fault.Untestable {
			return fmt.Errorf("cross-check: fault %d cites %q but scenario says %v",
				fid, r.Scenarios[ev].Scenario.Name, st)
		}
	}
	// The baseline pattern set must detect what the baseline claims, and
	// none of the faults it proved untestable. A resumed baseline has no
	// pattern set to grade — the patterns died with the interrupted process,
	// only the verdicts were journaled — so its simulation check is skipped.
	if slices.Contains(r.Resumed, "full-scan") {
		fmt.Println("  cross-check: baseline restored from journal; pattern-set simulation skipped")
	} else {
		grader, err := sim.NewGrader(r.N, u)
		if err != nil {
			return err
		}
		det, unt, err := gradeTestSet("cross-check: pattern set", grader, r.Baseline)
		if err != nil {
			return err
		}
		fmt.Printf("  cross-check: %d detections and %d untestability verdicts confirmed by fault simulation\n",
			det, unt)
	}
	// Each fresh scenario's test set, graded on the scenario's clone at its
	// own observation points and through its multi-frame site map, must
	// likewise back its verdicts. A swept scenario's test set is its final
	// depth's, which re-targeted every class not proven untestable, so it
	// backs the converged verdicts in full.
	for _, sr := range r.Scenarios {
		label := fmt.Sprintf("cross-check %q", sr.Scenario.Name)
		if sr.Restored {
			fmt.Printf("  %s: skipped (restored from journal)\n", label)
			continue
		}
		grader, err := sim.NewGraderSites(sr.Clone, sr.Universe, sr.Obs, sr.Sites)
		if err != nil {
			return err
		}
		det, unt, err := gradeTestSet(label+": test set", grader, sr.Outcome)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: %d detections and %d untestability verdicts confirmed by fault simulation\n",
			label, det, unt)
	}
	return nil
}

// gradeTestSet re-grades out's test set with grader and returns how many
// Detected and Untestable verdicts of out.Status it checked: the set must
// detect every Detected fault and none of the Untestable ones. Errors start
// with label.
func gradeTestSet(label string, grader *sim.Grader, out *atpg.Outcome) (int, int, error) {
	det := out.Status.FaultsWith(fault.Detected)
	if got := grader.Grade(out.Patterns, out.States, det).Count(); got != len(det) {
		return 0, 0, fmt.Errorf("%s detects %d/%d detected-classified faults", label, got, len(det))
	}
	unt := out.Status.FaultsWith(fault.Untestable)
	if got := grader.Grade(out.Patterns, out.States, unt).Count(); got != 0 {
		return 0, 0, fmt.Errorf("%s detects %d untestable-classified faults", label, got)
	}
	return len(det), len(unt), nil
}

// scenarioSelfchecks exhaustively re-proves every untestability verdict of
// each scenario on the scenario's own clone and returns one summary line per
// scenario.
func scenarioSelfchecks(r *flow.Report) ([]string, error) {
	var lines []string
	for _, sr := range r.Scenarios {
		label := fmt.Sprintf("selfcheck %q", sr.Scenario.Name)
		if sr.Restored {
			// A journal-restored result carries no clone or site map to
			// re-prove against; its verdicts were checked when first produced.
			lines = append(lines, "  "+label+": skipped (restored from journal)")
			continue
		}
		line, err := reproveUntestable(label, sr.Clone, sr.Obs, sr.Universe, sr.Outcome.Status, sr.Sites)
		if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// reproveUntestable exhaustively re-proves, on clone, every fault of the
// clone's universe u that status marks Untestable, expanding each fault
// through sites so that multi-frame verdicts are re-proven against the same
// joint injection the engine searched. It returns label's summary line: how many
// verdicts the oracle confirmed, or "skipped" when clone has more
// controllables than the oracle accepts. It errors on the first verdict the
// oracle refutes.
func reproveUntestable(label string, clone *netlist.Netlist, obs []sim.ObsPoint, u *fault.Universe,
	status *fault.StatusMap, sites *fault.SiteMap) (string, error) {
	if got := len(testutil.Controllables(clone)); got > testutil.MaxExhaustiveInputs {
		return fmt.Sprintf("  %s: skipped (%d controllables)", label, got), nil
	}
	o, err := testutil.NewOracle(clone, obs)
	if err != nil {
		return "", err
	}
	checked := 0
	for _, fid := range status.FaultsWith(fault.Untestable) {
		f := u.FaultOf(fid)
		if detectable, w := o.DetectableInjection(sites.Expand(f)); detectable {
			return "", fmt.Errorf("%s: %s marked untestable but detected by %v", label, u.Describe(f), w)
		}
		checked++
	}
	mode := "single-site"
	if !sites.Empty() {
		mode = "multi-frame"
	}
	return fmt.Sprintf("  %s: %d untestability verdicts exhaustively confirmed (%s injection)",
		label, checked, mode), nil
}
