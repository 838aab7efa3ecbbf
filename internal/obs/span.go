package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one wall-clock interval in the campaign's work tree: a provider's
// run, a shared scenario preparation, one swept depth. Spans carry string
// attributes (set once the numbers are known, typically just before End) and
// child spans, giving the snapshot a tree whose parent attribution mirrors
// who did the work on whose behalf. A Span is safe for concurrent use; all
// methods on a nil Span are no-ops, so uninstrumented code paths cost one
// branch.
//
// Spans are deliberately coarse: per provider / preparation / depth, never per
// fault or per pattern. The per-verdict hot paths record into counters and
// histograms instead.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while open
	attrs    []attr
	children []*Span
}

// attr is one key/value pair; values are strings so the snapshot shape stays
// uniform (SetInt formats through strconv).
type attr struct {
	key, val string
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a nested span. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Ending twice keeps the first end time; ending a nil
// span is a no-op. Children left open stay open — the snapshot reports them
// with their running duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr sets a string attribute, overwriting an existing key.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, val})
}

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SpanSnapshot is the serialized form of one span. StartNS is the offset
// from the registry's epoch, so span trees from one snapshot are directly
// comparable; attrs serialize as a sorted-key map.
type SpanSnapshot struct {
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	DurNS    int64             `json:"dur_ns"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanSnapshot    `json:"children,omitempty"`
}

// Int reads an integer attribute (0 if absent or malformed).
func (s *SpanSnapshot) Int(key string) int64 {
	v, _ := strconv.ParseInt(s.Attrs[key], 10, 64)
	return v
}

// snapshot captures the span subtree. now is the snapshot instant used for
// the running duration of still-open spans.
func (s *Span) snapshot(epoch, now time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	attrs := append([]attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	out := SpanSnapshot{
		Name:    s.name,
		StartNS: s.start.Sub(epoch).Nanoseconds(),
	}
	if end.IsZero() {
		out.Open = true
		out.DurNS = now.Sub(s.start).Nanoseconds()
	} else {
		out.DurNS = end.Sub(s.start).Nanoseconds()
	}
	if len(attrs) > 0 {
		out.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.key] = a.val
		}
	}
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot(epoch, now))
	}
	return out
}
