package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/obs"
)

// BenchmarkGenerateAllBenchTelemetry is BenchmarkGenerateAllBench with a live
// registry — the acceptance budget is ns/op within 3% of the no-op (nil
// registry) baseline above, pinning the always-on cost of the hot-path
// counters.
func BenchmarkGenerateAllBenchTelemetry(b *testing.B) {
	n := bench.Build(8)
	u := fault.NewUniverse(n)
	reg := obs.New()
	b.ReportMetric(float64(u.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.Aborted != 0 {
			b.Fatalf("%d aborted", out.Stats.Aborted)
		}
	}
}

// TestSweepSpanTreeMatchesConvergence pins the sweep's span tree: a swept
// run's metrics snapshot carries, under the sweep provider, a "prep" span
// for the clone preparation followed by one span per depth whose attrs
// reproduce the report's convergence table entry for entry — frames,
// targeted classes, new and cumulative untestable counts.
func TestSweepSpanTreeMatchesConvergence(t *testing.T) {
	reg := obs.New()
	cfg := config{Spec: bench.Spec{Width: 2, Frames: 2, MaxFrames: 4}, sweep: true}
	var r *flow.Report
	err := quiet(func() error {
		var e error
		r, _, e = runCampaign(context.Background(), cfg, reg)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	var sweepName string
	var depths []sweepDepthRow
	for _, sr := range r.Scenarios {
		if sr.Sweep == nil {
			continue
		}
		sweepName = sr.Scenario.Name
		for _, d := range sr.Sweep.Depths {
			depths = append(depths, sweepDepthRow{
				Frames: d.Frames, Classes: d.Classes,
				New: d.NewUntestable, Cum: d.CumUntestable,
			})
		}
	}
	if sweepName == "" || len(depths) == 0 {
		t.Fatal("no swept scenario in the report")
	}

	snap := reg.Snapshot()
	span := snap.FindSpan("provider:sweep:" + sweepName)
	if span == nil {
		t.Fatalf("no span for swept provider %q", sweepName)
	}
	if len(span.Children) == 0 || span.Children[0].Name != "prep" || span.Children[0].Open {
		t.Fatalf("sweep span's first child is not an ended prep span: %+v", span.Children)
	}
	if len(span.Children)-1 != len(depths) {
		t.Fatalf("%d depth spans, convergence table has %d rows", len(span.Children)-1, len(depths))
	}
	for i, row := range depths {
		ds := span.Children[1+i]
		if want := fmt.Sprintf("depth:k=%d", row.Frames); ds.Name != want {
			t.Errorf("depth span %d named %q, want %q", i, ds.Name, want)
		}
		if ds.Open {
			t.Errorf("depth span %q still open", ds.Name)
		}
		for attr, want := range map[string]int64{
			"frames":         int64(row.Frames),
			"classes":        int64(row.Classes),
			"new_untestable": int64(row.New),
			"cum_untestable": int64(row.Cum),
		} {
			if got := ds.Int(attr); got != want {
				t.Errorf("%s.%s = %d, want %d (convergence table)", ds.Name, attr, got, want)
			}
		}
	}
	// The sweep records one extend per depth transition and one build.
	if h := snap.Histograms["constraint.unroll.extend_ns"]; int(h.Count) != len(depths)-1 {
		t.Errorf("extend_ns count = %d, want %d (depth transitions)", h.Count, len(depths)-1)
	}
	if h := snap.Histograms["constraint.unroll.build_ns"]; h.Count != 1 {
		t.Errorf("build_ns count = %d, want 1", h.Count)
	}
}

// sweepDepthRow is one convergence-table row distilled for comparison.
type sweepDepthRow struct {
	Frames, Classes, New, Cum int
}

// TestMetricsOutFile drives run() with -metrics-out: the file must appear
// even though the run also prints a report, parse back into an obs.Snapshot,
// and carry non-zero engine and campaign totals plus the span tree.
func TestMetricsOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	cfg := config{Spec: bench.Spec{Width: 2, Frames: 2}, metricsOut: path}
	if err := runQuiet(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	for _, name := range []string{"atpg.classes", "atpg.classes.detected", "flow.deltas", "flow.delta_entries"} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s is zero in the written snapshot", name)
		}
	}
	if len(snap.Spans) == 0 || snap.FindSpan("campaign") == nil {
		t.Error("written snapshot has no campaign span tree")
	}
	if snap.TakenUnixNS == 0 || snap.UptimeNS <= 0 {
		t.Errorf("snapshot timing fields unset: taken=%d uptime=%d", snap.TakenUnixNS, snap.UptimeNS)
	}
}

// TestProgressLiveSubtractsRetargeted is the sweep-progress regression pin:
// depth sweeps re-count re-targeted classes on atpg.classes, so the live
// estimate must back out atpg.classes.retargeted — with 10 targetings, 6
// resolutions and 3 re-targets, exactly one class is still live. The line
// also reports the sched.queue_depth gauge.
func TestProgressLiveSubtractsRetargeted(t *testing.T) {
	reg := obs.New()
	reg.Counter("atpg.classes").Add(10)
	reg.Counter("atpg.classes.detected").Add(4)
	reg.Counter("atpg.classes.untestable").Add(2)
	reg.Counter("atpg.classes.retargeted").Add(3)
	reg.Counter("sched.queue_depth").Add(1)
	var buf strings.Builder
	p := newProgressReporter(&buf, reg, time.Hour)
	p.summary(false)
	close(p.stop)
	p.wg.Wait()
	if got := buf.String(); !strings.Contains(got, "6/10 classes resolved, 1 live, 1 queued") {
		t.Fatalf("summary %q: want 1 live (10 classes - 6 resolved - 3 retargeted) and 1 queued", got)
	}
}

// TestDebugServerMetricsEndpoint pins the -pprof surface: the server binds,
// /metrics serves a parseable live snapshot, and /debug/pprof/ answers.
func TestDebugServerMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	reg.Counter("atpg.classes").Add(7)
	addr, stop, err := startDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if got := snap.Counter("atpg.classes"); got != 7 {
		t.Errorf("live snapshot counter = %d, want 7", got)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	index, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(index), "goroutine") {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
}
