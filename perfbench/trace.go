package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"

	"olfui/internal/obs"
)

// tracer records spans: the benchmark's own, around each of its calls into
// a package, and the program's span tree for the traced campaign, attached
// from the registry snapshot. Every span carries the tracer's run id. The
// spans stay in memory until write saves them once, when the run ends. A
// nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	run   string
	spans []span
}

// span is one recorded interval; parent indexes tracer.spans, -1 for a
// root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// start opens a span under parent and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// stop closes the span id.
func (t *tracer) stop(id int) {
	if t != nil && id >= 0 {
		t.spans[id].end = time.Now()
	}
}

// attach copies the span forest of a registry snapshot under parent,
// turning the snapshot's offsets from the registry epoch into times.
func (t *tracer) attach(s *obs.Snapshot, parent int) {
	if t == nil || s == nil {
		return
	}
	epoch := time.Unix(0, s.TakenUnixNS-s.UptimeNS)
	var add func(obs.SpanSnapshot, int)
	add = func(ss obs.SpanSnapshot, parent int) {
		start := epoch.Add(time.Duration(ss.StartNS))
		t.spans = append(t.spans, span{name: ss.Name, parent: parent, start: start,
			end: start.Add(time.Duration(ss.DurNS))})
		id := len(t.spans) - 1
		for _, c := range ss.Children {
			add(c, id)
		}
	}
	for _, ss := range s.Spans {
		add(ss, parent)
	}
}

// seconds sums the durations of the spans named name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d.Seconds()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Children may overlap (providers run
// concurrently), so their intervals are merged before they are subtracted.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		var ivs []span
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.start.Before(s.start) {
				c.start = s.start
			}
			if c.end.After(s.end) {
				c.end = s.end
			}
			if c.end.After(c.start) {
				ivs = append(ivs, c)
			}
		}
		slices.SortFunc(ivs, func(a, b span) int { return a.start.Compare(b.start) })
		self[i] = s.end.Sub(s.start)
		for j := 0; j < len(ivs); {
			lo, hi := ivs[j].start, ivs[j].end
			for j++; j < len(ivs) && !ivs[j].start.After(hi); j++ {
				if ivs[j].end.After(hi) {
					hi = ivs[j].end
				}
			}
			self[i] -= hi.Sub(lo)
		}
	}
	return self
}

// write saves every span to path as JSON: run id, id, parent, name, start
// offset from the first span, duration and self time in nanoseconds.
func (t *tracer) write(path string) error {
	type record struct {
		Run     string `json:"run"`
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
		SelfNS  int64  `json:"self_ns"`
	}
	self := t.selfTimes()
	recs := make([]record, len(t.spans))
	for i, s := range t.spans {
		recs[i] = record{
			Run: t.run, ID: i, Parent: s.parent, Name: s.name,
			StartNS: s.start.Sub(t.spans[0].start).Nanoseconds(),
			DurNS:   s.end.Sub(s.start).Nanoseconds(),
			SelfNS:  self[i].Nanoseconds(),
		}
	}
	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o666)
}
