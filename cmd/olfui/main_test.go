package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sim"
)

// BenchmarkGenerateAllBench measures GenerateAll on the olfui benchmark
// circuit — the workload the incrementally pruned live-class list (vs
// rescanning every class per pattern) is aimed at.
func BenchmarkGenerateAllBench(b *testing.B) {
	n := bench.Build(8)
	u := fault.NewUniverse(n)
	b.ReportMetric(float64(u.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.Aborted != 0 {
			b.Fatalf("%d aborted", out.Stats.Aborted)
		}
	}
}

// TestBenchScreenRetiresOnlyUntestable is the screen pin behind the CI gate
// on BenchmarkGenerateAllBench: the committed benchmark numbers only count
// if the screen stage settles classes exactly as a search would. On the width-8 bench design at full
// scan and on each bench.Scenarios(2) clone, with that clone's site map and
// observation set, every class the screen retires (sim.Grader.Screen) must
// be one a search proves Untestable (Engine.Generate). Both rules must fire
// on the bench, so the measured speedup includes each of them.
func TestBenchScreenRetiresOnlyUntestable(t *testing.T) {
	type clone struct {
		name string
		n    *netlist.Netlist
		sm   *fault.SiteMap
		obs  []sim.ObsPoint
	}
	full := bench.Build(8)
	clones := []clone{{"full-scan", full, nil, sim.CombObsPoints(full)}}
	for _, sc := range bench.Scenarios(2) {
		c := bench.Build(8)
		sm, err := constraint.ApplyMapped(c, sc.Transforms...)
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, clone{sc.Name, c, sm, sc.Observe(c)})
	}
	retired := map[sim.ScreenRule]int{}
	for _, c := range clones {
		u := fault.NewUniverse(c.n)
		collapse := fault.NewCollapse(u)
		var reps []fault.FID
		for id := range u.NumFaults() {
			if fid := fault.FID(id); collapse.Rep(fid) == fid {
				reps = append(reps, fid)
			}
		}
		grader, err := sim.NewGraderSites(c.n, u, c.obs, c.sm)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := atpg.New(c.n, atpg.Options{ObsPoints: c.obs, Sites: c.sm})
		if err != nil {
			t.Fatal(err)
		}
		rules := map[sim.ScreenRule]int{}
		grader.Screen(reps, func(fid fault.FID, rule sim.ScreenRule) {
			rules[rule]++
			if r := eng.Generate(u.FaultOf(fid)); r.Verdict != atpg.Untestable {
				t.Errorf("%s: the screen retires %s (rule %d), a search says %v",
					c.name, u.Describe(u.FaultOf(fid)), rule, r.Verdict)
			}
		})
		t.Logf("%s: %d classes, %d constant, %d unobservable", c.name, len(reps),
			rules[sim.ScreenConstant], rules[sim.ScreenUnobservable])
		for rule, k := range rules {
			retired[rule] += k
		}
	}
	if retired[sim.ScreenConstant] == 0 || retired[sim.ScreenUnobservable] == 0 {
		t.Fatalf("retired %d constant and %d unobservable classes on the bench; both rules must fire",
			retired[sim.ScreenConstant], retired[sim.ScreenUnobservable])
	}
}

// BenchmarkCampaignBench measures the full campaign — the baseline plus the
// three scenarios streaming into one merge.
func BenchmarkCampaignBench(b *testing.B) {
	cfg := config{width: 4, frames: 2}
	for i := 0; i < b.N; i++ {
		if err := runQuiet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchConfig is the BENCH_PR9 workload: a swept campaign at width 12,
// every provider's dispatch loop searching its hardest-first class list one
// class at a time. The backtrack limit keeps per-class search bounded so
// the measurement weighs scheduling and dropping rather than abort churn.
func sweepBenchConfig() config {
	return config{
		width: 12, frames: 2,
		sweep: true, maxFrames: 2, limit: 64,
	}
}

// BenchmarkCampaignSweep measures the swept campaign.
func BenchmarkCampaignSweep(b *testing.B) {
	cfg := sweepBenchConfig()
	for i := 0; i < b.N; i++ {
		if err := runQuiet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// runSweepCampaign is the BENCH_PR10 workload: the benchmark circuit's swept
// mission-reach scenario alone, run through the real campaign machinery with
// a multi-depth budget — the depth loop the cross-depth warm start
// accelerates (replay converts next-depth searches into pattern grading, and
// the grader's simulation graph extends in place), undiluted by the
// full-scan baseline and the non-swept scenarios. The backtrack limit is tighter than
// the BENCH_PR9 workload's because hard-class abort churn would only dilute
// the measured depth loop.
func runSweepCampaign(tb testing.TB, reg *obs.Registry) *flow.ScenarioProvider {
	n := bench.Build(12)
	u := fault.NewUniverse(n)
	reach := bench.Scenarios(2)[2] // mission-reach: the swept shape
	c := flow.NewCampaign(n, u, flow.CampaignOptions{
		ATPG:    atpg.Options{BacktrackLimit: 32},
		Metrics: reg,
	})
	sp := &flow.ScenarioProvider{Scenario: reach, MaxFrames: 6}
	if err := c.Add(sp); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return sp
}

// BenchmarkCampaignSweepWarm measures the swept campaign with the cross-depth
// warm start.
func BenchmarkCampaignSweepWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweepCampaign(b, nil)
	}
}

// TestCampaignSweepReplayDigestEqual pins the BENCH_PR10 workload at its
// exact configuration: the warm sweep projects every fault of the benchmark
// onto the same status (byte-identical digest) as a one-shot scenario run at
// the sweep's final depth, which searches every class with no replay and a
// fresh grader, and neither side aborts a class. It also asserts replay
// fires on the benchmark workload, so the measured sweep exercises both
// warm-start layers rather than just the in-place extension.
func TestCampaignSweepReplayDigestEqual(t *testing.T) {
	digest := func(st *fault.StatusMap) string {
		b := make([]byte, st.Len())
		for id := range b {
			b[id] = byte(st.Get(fault.FID(id)))
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	reg := obs.New()
	warm := runSweepCampaign(t, reg)
	final := warm.Result.Sweep.FinalFrames
	n := bench.Build(12)
	c := flow.NewCampaign(n, fault.NewUniverse(n), flow.CampaignOptions{
		ATPG: atpg.Options{BacktrackLimit: 32},
	})
	oneshot := &flow.ScenarioProvider{Scenario: bench.Scenarios(final)[2]}
	if err := c.Add(oneshot); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w, o := warm.Result.Outcome.Stats.Aborted, oneshot.Result.Outcome.Stats.Aborted; w != 0 || o != 0 {
		t.Fatalf("aborted %d classes swept, %d one-shot; equality only holds absent aborts", w, o)
	}
	if w, o := digest(warm.Result.Projected), digest(oneshot.Result.Projected); w != o {
		t.Fatalf("projected digest %s swept, %s one-shot at k=%d", w, o, final)
	}
	if dropped := reg.Counter("flow.sweep.replay.dropped").Load(); dropped == 0 {
		t.Fatal("replay dropped no classes on the benchmark workload — the sweep no longer exercises pattern replay")
	}
}

// quiet runs fn with stdout silenced (tests and benchmarks should not spam).
func quiet(fn func() error) error {
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	return fn()
}

// runQuiet runs the binary's whole path with stdout silenced.
func runQuiet(cfg config) error {
	return quiet(func() error { return run(context.Background(), cfg) })
}

func writeStim(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mission.stim")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPatternSets(t *testing.T) {
	n := bench.Build(2) // 13 primary inputs
	path := writeStim(t, `
# inputs: a0 a1 b0 b1 cin op0 op1 op2 op3 scan_en scan_in debug_en rstn
seq add
1010110000001
011101000000X  # trailing comment
seq	xor
1001000100001
`)
	sets, err := loadPatternSets(n, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0].Name != "add" || sets[1].Name != "xor" {
		t.Fatalf("sets = %+v", sets)
	}
	if len(sets[0].Stim.Cycles) != 2 || len(sets[1].Stim.Cycles) != 1 {
		t.Fatalf("cycle counts wrong: %d %d", len(sets[0].Stim.Cycles), len(sets[1].Stim.Cycles))
	}
	if got := sets[0].Stim.Cycles[1][12]; got != logic.X {
		t.Fatalf("X symbol parsed as %v", got)
	}
	if got := sets[0].Stim.Cycles[0][0]; got != logic.One {
		t.Fatalf("first symbol parsed as %v", got)
	}
	if len(sets[0].Stim.Inputs) != 13 {
		t.Fatalf("%d stimulus inputs, want 13", len(sets[0].Stim.Inputs))
	}

	for name, tc := range map[string]struct{ stim, cause string }{
		"row before seq": {"1010110000001\n", `cycle row before any "seq" header`},
		"short row":      {"seq s\n101\n", "row has 3 symbols, circuit has 13 primary inputs"},
		"bad symbol":     {"seq s\n2010110000001\n", "bad symbol '2'"},
		"empty seq":      {"seq s\n", `sequence "s" has no cycles`},
		"duplicate seq":  {"seq s\n1010110000001\nseq s\n1010110000001\n", `duplicate sequence "s"`},
		"nameless seq":   {"seq \n1010110000001\n", "seq without a name"},
		"no sequences":   {"# nothing\n", "no sequences found"},
		"long line":      {"seq s\n" + strings.Repeat("0", 1<<16) + "\n", "token too long"},
	} {
		path := writeStim(t, tc.stim)
		_, err := loadPatternSets(n, path)
		switch {
		case err == nil:
			t.Errorf("%s: want error", name)
		case !strings.Contains(err.Error(), tc.cause) || !strings.Contains(err.Error(), path):
			t.Errorf("%s: error %q does not name %s and %q", name, err, path, tc.cause)
		}
	}
}

// TestRunShardedWithPatterns drives the binary's whole path — a
// multi-worker campaign, multi-frame injection, pattern import, cross-checks,
// multi-site oracle selfcheck — end to end.
func TestRunShardedWithPatterns(t *testing.T) {
	path := writeStim(t, `
seq add-sweep
1010110000001
0111010000001
1111110000001
seq xor-walk
1001000100001
0110000100001
`)
	cfg := config{width: 2, workers: 4, frames: 2, patterns: path, selfcheck: true}
	if err := runQuiet(cfg); err != nil {
		t.Fatal(err)
	}
}

// campaignQuiet runs the campaign with stdout silenced and returns the
// report for comparison.
func campaignQuiet(t *testing.T, cfg config) *flow.Report {
	t.Helper()
	var r *flow.Report
	err := quiet(func() error {
		var err error
		r, _, err = runCampaign(context.Background(), cfg, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCrossCheckGradesScenarioTestSets pins that the cross-check re-grades
// every fresh scenario's test set on the scenario's own clone, not only the
// baseline's, swept scenarios included: once a scenario's test set is
// emptied it no longer backs the scenario's Detected verdicts, and the
// cross-check must fail naming it.
func TestCrossCheckGradesScenarioTestSets(t *testing.T) {
	for _, cfg := range []config{
		{width: 2, frames: 2},
		{width: 2, frames: 2, sweep: true, maxFrames: 4},
	} {
		r := campaignQuiet(t, cfg)
		if err := quiet(func() error { return crossCheck(r, r.Universe) }); err != nil {
			t.Fatalf("fresh campaign (max frames %d): %v", cfg.maxFrames, err)
		}
		for _, sr := range r.Scenarios {
			saved := *sr.Outcome
			sr.Outcome.Patterns, sr.Outcome.States = nil, nil
			err := quiet(func() error { return crossCheck(r, r.Universe) })
			*sr.Outcome = saved
			if err == nil || !strings.Contains(err.Error(), sr.Scenario.Name) {
				t.Errorf("scenario %q (max frames %d) with an empty test set: err = %v, want one naming it",
					sr.Scenario.Name, cfg.maxFrames, err)
			}
		}
	}
}

// TestFlagValidation pins the up-front flag rejections: each inconsistent
// combination fails with a one-line error naming the flag, before any
// transform or provider work starts.
func TestFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg  config
		want string
	}{
		"width 0":    {config{width: 0, frames: 2}, "-width"},
		"width -3":   {config{width: -3, frames: 2}, "-width"},
		"frames":     {config{width: 2, frames: 0}, "-frames"},
		"max-frames": {config{width: 2, frames: 3, maxFrames: 2}, "-max-frames"},
		"resume":     {config{width: 2, frames: 2, resume: true}, "-resume"},
	} {
		_, _, err := runCampaign(context.Background(), tc.cfg, nil)
		if err == nil {
			t.Errorf("%s: want rejection", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}
}

// TestRunSweepSelfcheck drives the binary's sweep path end to end: adaptive
// depth sweep with per-depth exhaustive selfchecks, report table, and the
// final cross-checks.
func TestRunSweepSelfcheck(t *testing.T) {
	cfg := config{width: 1, frames: 2, sweep: true, maxFrames: 3, selfcheck: true}
	if err := runQuiet(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSelfcheckReprovesEveryUntestable pins that -selfcheck re-proves every
// untestability verdict, not a sample: on the width-1 bench, with the reach
// scenario swept at its starting depth, each sweep depth's line and each
// scenario's line confirm exactly as many verdicts as the depth or scenario
// holds Untestable.
func TestSelfcheckReprovesEveryUntestable(t *testing.T) {
	n := bench.Build(1)
	var lines, want []string
	check := sweepSelfcheck(&lines)
	r, err := flow.RunCampaign(context.Background(), n, fault.NewUniverse(n), bench.Scenarios(2), flow.Options{
		MaxFrames: 2,
		SweepOnDepth: func(name string, d flow.SweepDepth) error {
			want = append(want, fmt.Sprintf("sweep selfcheck %q k=%d: %d untestability verdicts exhaustively confirmed",
				name, d.Frames, len(d.Status.FaultsWith(fault.Untestable))))
			return check(name, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	scenarioLines, err := scenarioSelfchecks(r)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, scenarioLines...)
	for _, sr := range r.Scenarios {
		want = append(want, fmt.Sprintf("selfcheck %q: %d untestability verdicts exhaustively confirmed",
			sr.Scenario.Name, len(sr.Outcome.Status.FaultsWith(fault.Untestable))))
	}
	if len(lines) != len(want) {
		t.Fatalf("%d selfcheck lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), want[i]) {
			t.Errorf("selfcheck line %q, want it to start %q", lines[i], want[i])
		}
	}
	t.Log("\n" + strings.Join(lines, "\n"))
}

// TestSweepMatchesOneShotOnBench is the acceptance criterion on the olfui
// benchmark: the sweep's converged report classifies every fault exactly as
// a one-shot campaign at the sweep's final depth does (absent aborts).
func TestSweepMatchesOneShotOnBench(t *testing.T) {
	// Deeper frames need more backtracks than the default limit allows on
	// the width-2 bench; equality is only claimed absent aborts.
	swept := campaignQuiet(t, config{width: 2, frames: 2, sweep: true, maxFrames: 4, limit: 1 << 20})
	var sw *flow.SweepResult
	for _, sr := range swept.Scenarios {
		if sr.Sweep != nil {
			if sw != nil {
				t.Fatal("more than one swept scenario")
			}
			sw = sr.Sweep
		}
	}
	if sw == nil {
		t.Fatal("no scenario swept")
	}
	oneshot := campaignQuiet(t, config{width: 2, frames: sw.FinalFrames, limit: 1 << 20})
	for _, r := range []*flow.Report{swept, oneshot} {
		for _, sr := range r.Scenarios {
			if sr.Outcome.Stats.Aborted != 0 {
				t.Fatalf("scenario %q aborted %d classes; equality only holds absent aborts",
					sr.Scenario.Name, sr.Outcome.Stats.Aborted)
			}
		}
	}
	for id := range swept.Class {
		if swept.Class[id] != oneshot.Class[id] {
			t.Errorf("fault %d: %v swept vs %v one-shot at k=%d",
				id, swept.Class[id], oneshot.Class[id], sw.FinalFrames)
		}
	}
}

// TestJournalFingerprintCompatible pins the campaign fingerprint a
// default-mode journal records to the bytes earlier versions wrote, so those
// journals stay resumable, and checks that journals of retired campaign
// shapes — a sharded baseline roster, the cold sweep's no_replay flag — are
// refused as a different campaign.
func TestJournalFingerprintCompatible(t *testing.T) {
	const want = `{"design":"bench2","faults":322,"providers":[` +
		`{"name":"full-scan","channel":"full-scan"},{"name":"scenario:mission","channel":"mission"},` +
		`{"name":"scenario:mission-reach","channel":"mission"},{"name":"scenario:online","channel":"mission"}]}`
	dir := filepath.Join(t.TempDir(), "default")
	campaignQuiet(t, config{width: 2, frames: 2, journalDir: dir})
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := string(j.Recovered().Meta)
	j.Close()
	if got != want {
		t.Fatalf("fingerprint\n  %s\nwant\n  %s", got, want)
	}

	for name, tc := range map[string]struct {
		cfg  config
		meta string
	}{
		"sharded roster": {config{width: 2, frames: 2}, strings.Replace(want,
			`{"name":"full-scan","channel":"full-scan"}`,
			`{"name":"full-scan[1/3]","channel":"full-scan"},{"name":"full-scan[2/3]","channel":"full-scan"},`+
				`{"name":"full-scan[3/3]","channel":"full-scan"}`, 1)},
		"no_replay": {config{width: 2, frames: 2, sweep: true}, `{"design":"bench2","faults":322,"no_replay":true,"providers":[` +
			`{"name":"full-scan","channel":"full-scan"},{"name":"scenario:mission","channel":"mission"},` +
			`{"name":"scenario:online","channel":"mission"},{"name":"sweep:mission-reach","channel":"mission"}]}`},
	} {
		dir := filepath.Join(t.TempDir(), "foreign")
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.SetMeta([]byte(tc.meta)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		tc.cfg.journalDir, tc.cfg.resume = dir, true
		err = quiet(func() error {
			_, _, err := runCampaign(context.Background(), tc.cfg, nil)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "belongs to a different campaign") {
			t.Errorf("%s: resume err %v, want a different-campaign refusal", name, err)
		}
	}
}
