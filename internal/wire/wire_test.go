package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"olfui/internal/fault"
	"olfui/internal/netlist"
)

func wireUniverse(t *testing.T) *fault.Universe {
	t.Helper()
	n := netlist.New("wire")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("x", a, b))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return fault.NewUniverse(n)
}

func TestDeltaRoundTrip(t *testing.T) {
	in := fault.Delta{
		Source:   "baseline:0",
		Seq:      7,
		FIDs:     []fault.FID{0, 3, 5},
		Statuses: []fault.Status{fault.Detected, fault.Untestable, fault.Aborted},
	}
	raw, err := Encode(NewDelta(in))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindDelta {
		t.Fatalf("kind %q", m.Kind)
	}
	if got := m.Delta.Fault(); !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip %+v, want %+v", got, in)
	}
}

func TestEmptyDeltaRoundTrip(t *testing.T) {
	in := fault.Delta{Source: "s", Seq: 0}
	raw, err := Encode(NewDelta(in))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Delta.Fault(); !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip %+v, want %+v", got, in)
	}
}

func TestEventRoundTrip(t *testing.T) {
	in := &Event{
		Provider: "scenario online",
		Channel:  "mission",
		Source:   "scenario online:1",
		Time:     time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		Seq:      4,
		Faults:   128,
		Done:     true,
		Err:      "context canceled",
	}
	raw, err := Encode(NewEvent(in))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Event, in) {
		t.Fatalf("round trip %+v, want %+v", m.Event, in)
	}
	// The error travels as a plain string, visible in the raw JSON.
	if !strings.Contains(string(raw), `"err":"context canceled"`) {
		t.Fatalf("err not flattened to string: %s", raw)
	}
}

func TestSnapshotRoundTripThroughRestore(t *testing.T) {
	u := wireUniverse(t)
	a := fault.NewAccumulator(u)
	deltas := []fault.Delta{
		{Source: "p1", Seq: 0, FIDs: []fault.FID{0, 2}, Statuses: []fault.Status{fault.Detected, fault.Untestable}},
		{Source: "p2", Seq: 0, FIDs: []fault.FID{1}, Statuses: []fault.Status{fault.Aborted}},
	}
	for _, d := range deltas {
		if err := a.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := Encode(NewSnapshot(a.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fault.RestoreAccumulator(u, m.Snapshot.Fault())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < u.NumFaults(); id++ {
		if r.Get(fault.FID(id)) != a.Get(fault.FID(id)) {
			t.Fatalf("fault %d: %v != %v", id, r.Get(fault.FID(id)), a.Get(fault.FID(id)))
		}
		if r.Source(fault.FID(id)) != a.Source(fault.FID(id)) {
			t.Fatalf("fault %d attribution: %q != %q", id, r.Source(fault.FID(id)), a.Source(fault.FID(id)))
		}
	}
	// Sequence state survived: the applied prefix replays as duplicates.
	if applied, err := r.Replay(deltas[0]); err != nil || applied {
		t.Fatalf("replay of applied seq: applied=%v err=%v", applied, err)
	}
}

func TestDecodeRejectsForeignVersion(t *testing.T) {
	raw, err := json.Marshal(&Message{V: Version + 1, Kind: KindDelta, Delta: &Delta{Source: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"v":1,`,
		"unknown kind":    `{"v":1,"kind":"teapot"}`,
		"missing payload": `{"v":1,"kind":"delta"}`,
		"wrong payload":   `{"v":1,"kind":"event","delta":{"source":"s","seq":0}}`,
		"no version":      `{"kind":"delta","delta":{"source":"s","seq":0}}`,
		"extra payloads": `{"v":1,"kind":"delta","delta":{"source":"s","seq":0},` +
			`"event":{"provider":"p","channel":"c","time":"2024-01-01T00:00:00Z","seq":0},` +
			`"snapshot":{"statuses":"AA==","attribution":[0]}}`,
		"extra snapshot": `{"v":1,"kind":"event","event":{"provider":"p","channel":"c","time":"2024-01-01T00:00:00Z","seq":0},` +
			`"snapshot":{"statuses":"","attribution":[]}}`,
	}
	for name, raw := range cases {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	if _, err := Encode(&Message{V: Version + 1, Kind: KindDelta, Delta: &Delta{}}); err == nil {
		t.Error("foreign version encoded")
	}
	if _, err := Encode(&Message{V: Version, Kind: "teapot"}); err == nil {
		t.Error("unknown kind encoded")
	}
	if _, err := Encode(&Message{V: Version, Kind: KindSnapshot}); err == nil {
		t.Error("missing payload encoded")
	}
	if _, err := Encode(&Message{V: Version, Kind: KindDelta, Delta: &Delta{}, Event: &Event{}, Snapshot: &Snapshot{}}); err == nil {
		t.Error("message with extra payloads encoded")
	}
	if _, err := Encode(&Message{V: Version, Kind: KindEvent, Event: &Event{}, Delta: &Delta{}}); err == nil {
		t.Error("event message with a delta payload encoded")
	}
}
