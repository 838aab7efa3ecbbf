package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	s := r.Root("z")
	c.Add(3)
	c.Inc()
	h.Observe(7)
	h.ObserveSince(time.Now())
	child := s.Child("c")
	child.SetInt("k", 1)
	child.End()
	s.SetAttr("a", "b")
	s.End()
	if c.Load() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles recorded something")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Add(5)
	c.Inc()
	c.Add(-2)
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("a"); c2 != c {
		t.Fatal("same name returned a different counter")
	}
	if got := r.Snapshot().Counter("a"); got != 4 {
		t.Fatalf("snapshot counter = %d, want 4", got)
	}
	if got := r.Snapshot().Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestHistogramExact(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 150 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if got := h.Quantile(0); got != 10 {
		t.Fatalf("min = %d, want 10", got)
	}
	if got := h.Quantile(1); got != 50 {
		t.Fatalf("max = %d, want 50", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Quantile estimates must stay within [min, max] and be monotone in q,
	// whatever the distribution.
	r := New()
	h := r.Histogram("h")
	vals := []int64{1, 1, 2, 3, 1000, 1001, 4096, 100000, 100001, 100002}
	var min, max int64 = vals[0], vals[0]
	for _, v := range vals {
		h.Observe(v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	prev := int64(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if got < min || got > max {
			t.Fatalf("q=%v: %d outside [%d, %d]", q, got, min, max)
		}
		if got < prev {
			t.Fatalf("q=%v: %d below previous quantile %d", q, got, prev)
		}
		prev = got
	}
	// A p50 of a distribution whose lower half is tiny must not land in the
	// 100k cluster: bucketed estimation is approximate, not unbounded.
	if got := h.Quantile(0.5); got > 4096 {
		t.Fatalf("p50 = %d, implausibly high", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := New().Histogram("h")
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: count=%d sum=%d max=%d",
			h.Count(), h.Sum(), h.Quantile(1))
	}
}

func TestHistogramZeroOnly(t *testing.T) {
	h := New().Histogram("h")
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0) != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatal("all-zero histogram has non-zero quantiles")
	}
}

func TestSpanTree(t *testing.T) {
	r := New()
	root := r.Root("campaign")
	p := root.Child("provider:x")
	p.SetInt("deltas", 7)
	p.SetAttr("channel", "mission")
	p.SetInt("deltas", 9) // overwrite
	d := p.Child("depth:k=2")
	d.End()
	p.End()
	// root stays open: snapshot must still include it with a running duration.
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("%d roots, want 1", len(snap.Spans))
	}
	rootSnap := snap.Spans[0]
	if !rootSnap.Open || rootSnap.DurNS < 0 {
		t.Fatalf("open root: open=%v dur=%d", rootSnap.Open, rootSnap.DurNS)
	}
	ps := snap.FindSpan("provider:x")
	if ps == nil {
		t.Fatal("provider span missing")
	}
	if ps.Open {
		t.Fatal("ended span marked open")
	}
	if got := ps.Int("deltas"); got != 9 {
		t.Fatalf("deltas attr = %d, want 9 (overwrite)", got)
	}
	if ps.Attrs["channel"] != "mission" {
		t.Fatalf("channel attr = %q", ps.Attrs["channel"])
	}
	if len(ps.Children) != 1 || ps.Children[0].Name != "depth:k=2" {
		t.Fatalf("children = %+v", ps.Children)
	}
	if snap.FindSpan("depth:k=2") == nil {
		t.Fatal("depth span not findable depth-first")
	}
	if snap.FindSpan("nope") != nil {
		t.Fatal("found a span that does not exist")
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(100)
	s := r.Root("root")
	s.SetInt("n", 3)
	s.End()
	snap := r.Snapshot()
	j1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("snapshot encoding unstable")
	}
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a") != 1 || back.Counter("b") != 2 {
		t.Fatalf("round-tripped counters wrong: %+v", back.Counters)
	}
	if back.Histograms["h"].Count != 1 || back.Histograms["h"].Sum != 100 {
		t.Fatalf("round-tripped histogram wrong: %+v", back.Histograms["h"])
	}
	if back.FindSpan("root").Int("n") != 3 {
		t.Fatal("round-tripped span attrs wrong")
	}
}

// TestConcurrentRecording hammers one registry from many goroutines — the
// exact usage pattern of concurrent GenerateAll runs and providers — and
// asserts the snapshot totals are exact. Run under -race this also proves
// the recording paths are data-race-free.
func TestConcurrentRecording(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	r := New()
	root := r.Root("campaign")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("latency")
			sp := root.Child("worker")
			for i := 0; i < perG; i++ {
				c.Add(1)
				h.Observe(int64(g*perG + i))
				if i%500 == 0 {
					sp.SetInt("progress", int64(i))
				}
			}
			sp.End()
		}(g)
	}
	wg.Wait()
	root.End()
	snap := r.Snapshot()
	if got := snap.Counter("shared"); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := snap.Histograms["latency"]
	if h.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	wantSum := int64(goroutines*perG) * int64(goroutines*perG-1) / 2
	if h.Sum != wantSum {
		t.Fatalf("histogram sum = %d, want %d", h.Sum, wantSum)
	}
	if h.Min != 0 || h.Max != int64(goroutines*perG-1) {
		t.Fatalf("min/max = %d/%d, want 0/%d", h.Min, h.Max, goroutines*perG-1)
	}
	cs := snap.FindSpan("campaign")
	if cs == nil || len(cs.Children) != goroutines {
		t.Fatalf("campaign span children = %d, want %d", len(cs.Children), goroutines)
	}
}

// TestSnapshotDuringRecording takes snapshots while recorders run: totals
// are transient but the snapshot must be internally consistent and safe.
func TestSnapshotDuringRecording(t *testing.T) {
	r := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(42)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if snap.Counter("c") < 0 {
			t.Fatal("negative counter")
		}
		if h, ok := snap.Histograms["h"]; ok && h.Count > 0 {
			if h.Min != 42 || h.Max != 42 {
				t.Fatalf("min/max = %d/%d, want 42/42", h.Min, h.Max)
			}
		}
	}
	close(stop)
	wg.Wait()
}
