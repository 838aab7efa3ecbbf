// Package obs is the repository's dependency-free telemetry layer: atomic
// counters, bounded histograms with quantile estimates, wall-clock spans with
// parent attribution, and a Registry that snapshots everything into one
// stable Go struct (and from there to JSON). It is the telemetry contract of
// the campaign pipeline — every layer (atpg, sim, constraint, flow, olfui)
// records into one Registry, and the planned campaign server (cmd/olfuid)
// will stream the same Snapshot shape to its clients.
//
// Two properties shape the design:
//
//   - Always-on cost. Hot paths (one GenerateAll verdict commit, one graded
//     pattern batch) touch only atomic adds on pre-resolved handles — no map
//     lookups, no allocation, no locks. Handle resolution (Registry.Counter,
//     Registry.Histogram) happens once per run, outside the hot loops.
//   - Nil safety as the off switch. Every method on a nil *Registry,
//     *Counter, *Histogram or *Span is a no-op (and Child/Counter/... return
//     nil), so uninstrumented callers pass nil and pay one predictable
//     branch per operation. The "no-op registry" build the cost budget is
//     measured against is exactly a nil registry.
//
// Spans are coarse-grained by design — one per provider, scenario
// preparation or sweep depth, never one per fault — so their allocation and
// locking cost is irrelevant next to the work they time.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic (or occasionally corrected — Add accepts negative
// deltas for upgrade paths like Aborted-to-Detected) atomic tally. The zero
// value is ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil Counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// values v with bits.Len64(v) == i, i.e. power-of-two ranges [2^(i-1), 2^i).
// 65 buckets cover every non-negative int64 (bucket 0 is exactly the value
// 0), so a histogram is ~600 bytes and never reallocates.
const histBuckets = 65

// Histogram is a bounded log-scale histogram over non-negative int64 samples
// (durations in nanoseconds, sizes, counts). Recording is lock-free: one
// atomic add on the bucket plus count/sum, and CAS loops for min/max. The
// zero value is ready to use; a nil Histogram ignores all operations.
// Negative samples are clamped to 0 rather than dropped, so Count always
// equals the number of Observe calls.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// min stores sample+1 so the zero value means "no sample yet" — a plain
	// 0 initial value would race with concurrent first observers. max needs
	// no sentinel: samples are non-negative, so 0 is a correct floor.
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if cur != 0 && v+1 >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts:
// it finds the bucket holding the q-th sample and interpolates linearly
// inside the bucket's value range. The estimate is exact for q=0 and q=1
// (min and max are tracked precisely) and within a factor of two otherwise —
// the right fidelity for p50/p90/p99 dashboards at constant memory. Returns
// 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min.Load() - 1
	}
	if q >= 1 {
		return h.max.Load()
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n > rank {
			lo, hi := bucketRange(i)
			if mn := h.min.Load() - 1; lo < mn {
				lo = mn
			}
			if mx := h.max.Load(); hi > mx {
				hi = mx
			}
			if hi < lo {
				hi = lo
			}
			// Linear interpolation of the rank's position inside the bucket.
			frac := float64(rank-cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.max.Load()
}

// bucketRange returns the inclusive value range of bucket i.
func bucketRange(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << uint(i-1)
	if i == 64 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1)<<uint(i) - 1
}

// Registry owns a namespace of counters and histograms plus a forest of
// root spans, and snapshots all of it into one stable struct. Handle lookup
// is mutex-protected get-or-create — callers resolve handles once per run
// and then record lock-free. A nil Registry hands out nil handles, making
// every downstream operation a no-op.
type Registry struct {
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	roots    []*Span
}

// New returns an empty registry. Its epoch (the zero point of span start
// offsets) is the creation time.
func New() *Registry {
	return &Registry{
		epoch:    time.Now(),
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Root starts a new root span. Returns nil on a nil registry.
func (r *Registry) Root(name string) *Span {
	if r == nil {
		return nil
	}
	s := newSpan(name)
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// Snapshot captures the registry's current state: counter values, histogram
// summaries with p50/p90/p99, and the full span forest. Open spans are
// included with their running duration and Open set — a live campaign can be
// snapshotted mid-flight (the /metrics endpoint does). Safe for concurrent
// use with recording. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	now := time.Now()
	snap := &Snapshot{
		TakenUnixNS: now.UnixNano(),
		UptimeNS:    now.Sub(r.epoch).Nanoseconds(),
		Counters:    map[string]int64{},
		Histograms:  map[string]HistogramSnapshot{},
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	for _, name := range names {
		snap.Counters[name] = r.counters[name].Load()
	}
	hnames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hnames = append(hnames, name)
	}
	roots := append([]*Span(nil), r.roots...)
	hs := make(map[string]*Histogram, len(hnames))
	for _, name := range hnames {
		hs[name] = r.hists[name]
	}
	r.mu.Unlock()
	for _, name := range hnames {
		h := hs[name]
		snap.Histograms[name] = HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Min:   h.Quantile(0),
			Max:   h.Quantile(1),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
	}
	for _, root := range roots {
		snap.Spans = append(snap.Spans, root.snapshot(r.epoch, now))
	}
	return snap
}

// Snapshot is the stable, JSON-serializable capture of a Registry. Map keys
// serialize sorted (encoding/json sorts them), span children preserve start
// order, so two snapshots of identical state encode identically.
type Snapshot struct {
	TakenUnixNS int64                        `json:"taken_unix_ns"`
	UptimeNS    int64                        `json:"uptime_ns"`
	Counters    map[string]int64             `json:"counters"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
	Spans       []SpanSnapshot               `json:"spans,omitempty"`
}

// HistogramSnapshot summarizes one histogram at snapshot time.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Counter returns the snapshot value of a named counter (0 if absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// FindSpan searches the span forest depth-first for the first span with the
// given name; nil if absent.
func (s *Snapshot) FindSpan(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	return findSpan(s.Spans, name)
}

func findSpan(spans []SpanSnapshot, name string) *SpanSnapshot {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if hit := findSpan(spans[i].Children, name); hit != nil {
			return hit
		}
	}
	return nil
}
