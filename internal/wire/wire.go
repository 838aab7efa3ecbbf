// Package wire defines the versioned, self-describing serialization of the
// campaign evidence protocol: fault deltas, progress events, and accumulator
// snapshots. Every serialized value is a Message envelope carrying a version
// number, a kind tag, and exactly one payload, so receivers can dispatch
// without out-of-band context and reject frames from a future protocol
// revision instead of misreading them. The encoding is JSON — the campaign
// server speaks HTTP/JSON and the journal stores CRC-framed JSON records, so
// one human-inspectable format serves both transports.
//
// Payload types mirror the in-process structures but stay independent of
// them where the in-process form doesn't survive encoding: flow.Event's Err
// field is a Go error and flattens to a string here (see flow.Event.Wire),
// and fault statuses travel as raw bytes validated on restore.
package wire

import (
	"encoding/json"
	"fmt"
	"time"

	"olfui/internal/fault"
)

// Version is the protocol revision this package encodes. Decode accepts
// exactly this version: the protocol is young enough that cross-version
// compatibility shims would outnumber real messages, so a version bump is a
// flag day and the version field exists to make that failure loud and
// attributable rather than a silent misparse.
const Version = 1

// Message kinds. A Message carries exactly the payload its Kind names.
const (
	KindDelta    = "delta"
	KindEvent    = "event"
	KindSnapshot = "snapshot"
)

// Message is the self-describing envelope around one protocol value.
type Message struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Delta    *Delta    `json:"delta,omitempty"`
	Event    *Event    `json:"event,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// Delta is the wire form of fault.Delta: one ordered evidence batch from a
// single source. FIDs and Statuses stay parallel arrays; Undetected entries
// are legal but pointless, exactly as in the in-process protocol.
type Delta struct {
	Source   string  `json:"source"`
	Seq      int     `json:"seq"`
	FIDs     []int32 `json:"fids,omitempty"`
	Statuses []uint8 `json:"statuses,omitempty"`
}

// FromDelta converts an in-process delta to its wire form.
func FromDelta(d fault.Delta) *Delta {
	w := &Delta{Source: d.Source, Seq: d.Seq}
	if len(d.FIDs) > 0 {
		w.FIDs = make([]int32, len(d.FIDs))
		w.Statuses = make([]uint8, len(d.Statuses))
		for i, id := range d.FIDs {
			w.FIDs[i] = int32(id)
		}
		for i, s := range d.Statuses {
			w.Statuses[i] = uint8(s)
		}
	}
	return w
}

// Fault converts back to the in-process delta. Structural validation
// (lengths, FID range, status values) is the receiving Accumulator's job —
// Apply rejects malformed deltas before merging — so this conversion is
// mechanical.
func (d *Delta) Fault() fault.Delta {
	out := fault.Delta{Source: d.Source, Seq: d.Seq}
	if len(d.FIDs) > 0 {
		out.FIDs = make([]fault.FID, len(d.FIDs))
		out.Statuses = make([]fault.Status, len(d.Statuses))
		for i, id := range d.FIDs {
			out.FIDs[i] = fault.FID(id)
		}
		for i, s := range d.Statuses {
			out.Statuses[i] = fault.Status(s)
		}
	}
	return out
}

// Event is the wire form of flow.Event. Err is flattened to its string
// rendering — a Go error does not survive encoding, and a provider failure
// must never be dropped as unserializable.
type Event struct {
	Provider string    `json:"provider"`
	Channel  string    `json:"channel"`
	Source   string    `json:"source,omitempty"`
	Time     time.Time `json:"time"`
	Seq      int       `json:"seq"`
	Faults   int       `json:"faults,omitempty"`
	Done     bool      `json:"done,omitempty"`
	Err      string    `json:"err,omitempty"`
}

// Snapshot is the wire form of fault.AccumulatorSnapshot. Statuses travel as
// one byte per fault (base64 under encoding/json); fault.RestoreAccumulator
// validates every structural invariant on restore, so a corrupt or foreign
// snapshot fails there rather than poisoning a merge.
type Snapshot struct {
	Statuses    []byte         `json:"statuses"`
	Attribution []int32        `json:"attribution"`
	Sources     []string       `json:"sources,omitempty"`
	NextSeq     map[string]int `json:"next_seq,omitempty"`
}

// FromSnapshot converts an accumulator snapshot to its wire form.
func FromSnapshot(s *fault.AccumulatorSnapshot) *Snapshot {
	w := &Snapshot{
		Statuses:    make([]byte, len(s.Statuses)),
		Attribution: s.Attribution,
		Sources:     s.Sources,
		NextSeq:     s.NextSeq,
	}
	for i, st := range s.Statuses {
		w.Statuses[i] = byte(st)
	}
	return w
}

// Fault converts back to the in-process snapshot form, ready for
// fault.RestoreAccumulator (which performs all validation).
func (s *Snapshot) Fault() *fault.AccumulatorSnapshot {
	out := &fault.AccumulatorSnapshot{
		Statuses:    make([]fault.Status, len(s.Statuses)),
		Attribution: s.Attribution,
		Sources:     s.Sources,
		NextSeq:     s.NextSeq,
	}
	for i, b := range s.Statuses {
		out.Statuses[i] = fault.Status(b)
	}
	return out
}

// NewDelta wraps a fault delta in a versioned envelope.
func NewDelta(d fault.Delta) *Message {
	return &Message{V: Version, Kind: KindDelta, Delta: FromDelta(d)}
}

// NewEvent wraps a wire event in a versioned envelope.
func NewEvent(e *Event) *Message {
	return &Message{V: Version, Kind: KindEvent, Event: e}
}

// NewSnapshot wraps an accumulator snapshot in a versioned envelope.
func NewSnapshot(s *fault.AccumulatorSnapshot) *Message {
	return &Message{V: Version, Kind: KindSnapshot, Snapshot: FromSnapshot(s)}
}

// payload returns the single payload the message's kind names, or an error
// if the kind is unknown, the payload is absent, or the message carries a
// payload its kind does not name.
func (m *Message) payload() (any, error) {
	var p any
	switch m.Kind {
	case KindDelta:
		if m.Delta != nil {
			p = m.Delta
		}
	case KindEvent:
		if m.Event != nil {
			p = m.Event
		}
	case KindSnapshot:
		if m.Snapshot != nil {
			p = m.Snapshot
		}
	default:
		return nil, fmt.Errorf("wire: unknown message kind %q", m.Kind)
	}
	if p == nil {
		return nil, fmt.Errorf("wire: %s message without %s payload", m.Kind, m.Kind)
	}
	for _, other := range []struct {
		kind string
		set  bool
	}{
		{KindDelta, m.Delta != nil},
		{KindEvent, m.Event != nil},
		{KindSnapshot, m.Snapshot != nil},
	} {
		if other.set && other.kind != m.Kind {
			return nil, fmt.Errorf("wire: %s message also carries a %s payload", m.Kind, other.kind)
		}
	}
	return p, nil
}

// Encode serializes a message, verifying the envelope is well-formed (current
// version, known kind, exactly the named payload present) so a malformed
// frame is caught at the sender, where the bug is.
func Encode(m *Message) ([]byte, error) {
	if m.V != Version {
		return nil, fmt.Errorf("wire: encoding version %d, this build speaks %d", m.V, Version)
	}
	if _, err := m.payload(); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// Decode parses a message and verifies the envelope: the version must be the
// one this build speaks, the kind known, and the matching payload the only
// one present.
func Decode(data []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if m.V != Version {
		return nil, fmt.Errorf("wire: message version %d, this build speaks %d", m.V, Version)
	}
	if _, err := m.payload(); err != nil {
		return nil, err
	}
	return &m, nil
}
