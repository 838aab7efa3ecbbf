package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/obs"
)

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the catalog: the
// same workloads, and the same metrics with the same units and directions,
// in the same order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, the benchmark runs %q", got, want)
	}
	for _, c := range []struct {
		kind    string
		entries []entry
		specs   []spec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.entries) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.kind, len(c.entries), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if e := c.entries[i]; e != (entry{s.name, s.unit, s.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %s %s %s", c.kind, i, e, s.name, s.unit, s.better)
			}
		}
	}
}

// TestSmoke runs every workload shape shrunk to width 2 through both kinds
// of run and checks the printed result line: correct, nothing failed, and
// exactly the catalogued metrics with their units.
func TestSmoke(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = nil
	for _, w := range saved {
		w.width = 2
		if w.traces > 0 {
			w.cycles = 64
		}
		workloads = append(workloads, w)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", trace, "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minCampaigns {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d",
					w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s -trace %s: printed %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s -trace %s: metric %s printed as %+v (present %v), want unit %s",
						w.name, trace, s.name, m, ok, s.unit)
				}
			}
		}
	}
}

// TestSnapshotMetricsRatios checks every ratio derived from a snapshot on
// synthetic counters, and that a layer that did not run reports 0, not NaN.
func TestSnapshotMetricsRatios(t *testing.T) {
	snap := &obs.Snapshot{
		Counters: map[string]int64{
			"atpg.abort.limit": 3, "atpg.backtracks": 40000, "atpg.implications": 5000,
			"atpg.learned_untestable": 30, "atpg.classes.untestable": 120,
			"atpg.classes.sim_dropped": 200, "atpg.classes": 800,
			"atpg.drop.hits": 150, "atpg.drop.graded": 600,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"atpg.search_ns":       {Count: 10, Sum: 2e9, Max: 1e9},
			"sched.worker_busy_ns": {Count: 2, Sum: 3e9},
		},
		Spans: []obs.SpanSnapshot{{Name: "campaign", Children: []obs.SpanSnapshot{
			{Name: "provider:full-scan", DurNS: 9e9},
			{Name: "provider:patterns", Children: []obs.SpanSnapshot{
				{Name: "set:a", DurNS: 2e8}, {Name: "set:b", DurNS: 3e8},
			}},
		}}},
	}
	got := snapshotMetrics(snap, 9999, 2, 2)
	for name, want := range map[string]float64{
		"atpg.abort_backtrack_pct": 75,   // 3 aborts x 10000 backtracks / 40000
		"atpg.implications_per_s":  2500, // 5000 / 2 s of search
		"learn.screen_pct":         25,   // 30 / 120
		"atpg.drop_pct":            25,   // 200 / 800
		"atpg.drop.hit_pct":        25,   // 150 / 600
		"sched.utilization_pct":    75,   // 3 s busy / (2 workers x 2 s)
		"flow.patterns.grade_s":    0.5,
		"atpg.search_s":            2,
		"atpg.searches":            10,
		"atpg.search_max_s":        1,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for name, v := range snapshotMetrics(&obs.Snapshot{}, 16, 1, 0) {
		if v != 0 {
			t.Errorf("%s = %v on an empty snapshot, want 0", name, v)
		}
	}

	r := &flow.Report{Scenarios: []*flow.ScenarioResult{
		{},
		{Sweep: &flow.SweepResult{Depths: []flow.SweepDepthStats{
			{Classes: 100}, {Classes: 50, ReplayDropped: 20}, {Classes: 30, ReplayDropped: 10},
		}}},
	}}
	if got := replayHitPct(r); got != 37.5 { // 30 dropped / 80 targeted after k0
		t.Errorf("replay hit pct = %v, want 37.5", got)
	}
}

// TestScaledWall checks that time on a CPU taken while the host ran the
// reference workload at half speed reads as half at the reference host,
// and that time off the CPU reads as measured.
func TestScaledWall(t *testing.T) {
	half := scale(1.5*refSeconds, 2.5*refSeconds)
	for _, c := range []struct {
		cost cost
		want float64
	}{
		{cost{wall: 4 * time.Second, cpu: 4 * time.Second}, 2},
		{cost{wall: 4 * time.Second, cpu: 8 * time.Second}, 2}, // two busy threads
		{cost{wall: 3 * time.Second, cpu: 2 * time.Second}, 2}, // 1 s waiting for fsync
	} {
		if got := c.cost.scaledWall(half); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%+v scaled at %v = %v, want %v", c.cost, half, got, c.want)
		}
	}
	if got := (cost{wall: time.Second, cpu: time.Second}).scaledWall(scale(refSeconds, refSeconds)); got != 1 {
		t.Errorf("a second at the reference speed scaled to %v", got)
	}
	if d := newReference(1).run(); d <= 0 {
		t.Errorf("reference workload took %v s", d)
	}
}

// TestSelfTimes checks that a span's self time subtracts the union of its
// children's intervals, clipped to its own.
func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(40)},
		{name: "b", parent: 0, start: at(30), end: at(60)},  // overlaps a
		{name: "c", parent: 0, start: at(90), end: at(120)}, // outlives root
		{name: "leaf", parent: 1, start: at(10), end: at(20)},
	}}
	want := []time.Duration{40, 20, 30, 30, 10}
	for i, got := range tr.selfTimes() {
		if got != want[i]*time.Millisecond {
			t.Errorf("span %s: self time %v, want %v", tr.spans[i].name, got, want[i]*time.Millisecond)
		}
	}
}

// TestCheckRejectsTamperedReport checks that the output check accepts a
// real report and rejects it once one baseline verdict is flipped, and
// that the resume check rejects a report that ran its providers or
// classifies differently.
func TestCheckRejectsTamperedReport(t *testing.T) {
	w, _ := findWorkload("abort-tail")
	w.width = 2
	fresh := func() *flow.Report {
		t.Helper()
		d, err := w.setup("", nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := w.campaign(d, nil, obs.New())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := fresh()
	if err := checkReport(rep, nil, -1); err != nil {
		t.Fatalf("untampered report rejected: %v", err)
	}
	unt := rep.Baseline.Status.FaultsWith(fault.Untestable)
	if len(unt) == 0 {
		t.Fatal("the width-2 baseline proves no fault untestable; pick a tamper that exists")
	}
	rep.Baseline.Status.Set(unt[0], fault.Detected)
	if err := checkReport(rep, nil, -1); err == nil {
		t.Error("accepted a report with a baseline Untestable flipped to Detected")
	}

	rep = fresh()
	rep.Baseline.Status.Set(rep.Baseline.Status.FaultsWith(fault.Detected)[0], fault.Untestable)
	if err := checkReport(rep, nil, -1); err == nil {
		t.Error("accepted a report with a baseline Detected flipped to Untestable")
	}

	rep = fresh()
	if err := checkResumed(rep, rep.ClassDigest(), w.providers()); err == nil {
		t.Error("accepted a report that ran its providers as a resume")
	}
	rep.Resumed = make([]string, w.providers())
	if err := checkResumed(rep, rep.ClassDigest(), w.providers()); err != nil {
		t.Errorf("rejected a resume that skipped every provider: %v", err)
	}
	if err := checkResumed(rep, "0123abcd", w.providers()); err == nil {
		t.Error("accepted a resume whose digest differs from its campaign's")
	}
}

// TestMissionTracesKeepConstraints checks the mission model on every cycle
// and that the traces depend on the seed alone.
func TestMissionTracesKeepConstraints(t *testing.T) {
	n := bench.Build(4)
	sets, err := missionTraces(n, 7, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("%d traces, want 3", len(sets))
	}
	for _, set := range sets {
		if len(set.Stim.Cycles) != 500 {
			t.Fatalf("%s: %d cycles, want 500", set.Name, len(set.Stim.Cycles))
		}
		for c, row := range set.Stim.Cycles {
			hot := 0
			for i, v := range row {
				name := n.Gates[n.Nets[set.Stim.Inputs[i]].Driver].Name
				var ok bool
				switch name {
				case "scan_en", "scan_in", "debug_en":
					ok = v == logic.Zero
				case "rstn":
					ok = v == logic.One
				case "op0", "op1", "op2", "op3":
					ok = v.IsKnown()
					if v == logic.One {
						hot++
					}
				default:
					ok = v.IsKnown()
				}
				if !ok {
					t.Fatalf("%s cycle %d: %s = %v breaks the mission model", set.Name, c, name, v)
				}
			}
			if hot != 1 {
				t.Fatalf("%s cycle %d: %d of op0-op3 high, want exactly 1", set.Name, c, hot)
			}
		}
	}
	again, err := missionTraces(n, 7, 3, 500)
	if err != nil || !reflect.DeepEqual(sets, again) {
		t.Error("the same seed gave different traces")
	}
	other, err := missionTraces(n, 8, 3, 500)
	if err != nil || reflect.DeepEqual(sets, other) {
		t.Error("another seed gave the same traces")
	}
}
