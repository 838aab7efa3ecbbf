package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"olfui/internal/fault"
	"olfui/internal/netlist"
)

func jUniverse(t *testing.T) *fault.Universe {
	t.Helper()
	n := netlist.New("j")
	a, b := n.Input("a"), n.Input("b")
	n.OutputPort("po", n.And("x", a, b))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return fault.NewUniverse(n)
}

func testDelta(src string, seq int, id fault.FID, st fault.Status) fault.Delta {
	return fault.Delta{Source: src, Seq: seq, FIDs: []fault.FID{id}, Statuses: []fault.Status{st}}
}

func TestFreshJournalRecoversNothing(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Recovered() != nil {
		t.Fatal("fresh journal reports recovered state")
	}
	j.Close()
	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Recovered() != nil {
		t.Fatal("reopened empty journal reports recovered state")
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := json.RawMessage(`{"design":"bench","faults":12}`)
	if err := j.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{
		{Channel: "full-scan", Provider: "baseline", D: testDelta("baseline:0", 0, 1, fault.Detected)},
		{Channel: "mission", Provider: "scenario x", D: testDelta("scenario x:0", 0, 2, fault.Untestable)},
		{Channel: "full-scan", Provider: "baseline", D: testDelta("baseline:0", 1, 3, fault.Aborted)},
	}
	for _, d := range deltas {
		if err := j.AppendDelta(d.Channel, d.Provider, d.D); err != nil {
			t.Fatal(err)
		}
	}
	res := &ProviderResult{Provider: "scenario x", Kind: "scenario", Data: json.RawMessage(`{"p":1}`)}
	if err := j.AppendResult(res); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDone("scenario x", 1); err != nil {
		t.Fatal(err)
	}
	if got := j.AppendedDeltas(); got["baseline:0"] != 2 || got["scenario x:0"] != 1 {
		t.Fatalf("appended counts %v", got)
	}
	j.Close()

	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.Recovered()
	if st == nil {
		t.Fatal("no state recovered")
	}
	if string(st.Meta) != string(meta) {
		t.Fatalf("meta %s", st.Meta)
	}
	if !reflect.DeepEqual(st.Deltas, deltas) {
		t.Fatalf("deltas %+v, want %+v", st.Deltas, deltas)
	}
	if st.Done["scenario x"] != 1 {
		t.Fatalf("done %v", st.Done)
	}
	if r := st.Results["scenario x"]; r == nil || r.Kind != "scenario" || string(r.Data) != `{"p":1}` {
		t.Fatalf("result %+v", st.Results)
	}
	if len(st.Channels) != 0 {
		t.Fatalf("unexpected channel snapshots %v", st.Channels)
	}
}

// fill appends n baseline deltas and returns the journal's wal path.
func fill(t *testing.T, dir string, n int) string {
	t.Helper()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetMeta(json.RawMessage(`{"m":1}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.AppendDelta("full-scan", "baseline", testDelta("baseline:0", i, fault.FID(i), fault.Detected)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	return filepath.Join(dir, "wal-0.log")
}

func TestTruncatedTailKeepsIntactPrefixAndResumes(t *testing.T) {
	dir := t.TempDir()
	wal := fill(t, dir, 4)
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record in half.
	if err := os.Truncate(wal, info.Size()-20); err != nil {
		t.Fatal(err)
	}

	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Recovered()
	if st == nil || len(st.Deltas) != 3 {
		t.Fatalf("recovered %d deltas, want 3 (the intact prefix)", len(st.Deltas))
	}
	// The journal stays appendable after tail repair…
	if err := j.AppendDelta("full-scan", "baseline", testDelta("baseline:0", 3, 9, fault.Aborted)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// …and the repaired prefix plus the new append all recover.
	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st = j.Recovered()
	if len(st.Deltas) != 4 {
		t.Fatalf("recovered %d deltas after repair+append, want 4", len(st.Deltas))
	}
	if last := st.Deltas[3].D; last.Seq != 3 || last.FIDs[0] != 9 {
		t.Fatalf("last delta %+v", last)
	}
}

func TestTruncatedHeaderRecoversEmpty(t *testing.T) {
	dir := t.TempDir()
	wal := fill(t, dir, 2)
	if err := os.Truncate(wal, 3); err != nil { // inside the magic header
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Recovered() != nil {
		t.Fatal("headerless wal recovered state")
	}
	if err := j.AppendDelta("full-scan", "baseline", testDelta("baseline:0", 0, 0, fault.Detected)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.Recovered(); st == nil || len(st.Deltas) != 1 {
		t.Fatalf("recreated wal did not recover: %+v", st)
	}
}

func TestCRCMismatchEndsReplayAtDamage(t *testing.T) {
	dir := t.TempDir()
	wal := fill(t, dir, 4)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a byte inside the final record's payload
	if err := os.WriteFile(wal, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.Recovered(); st == nil || len(st.Deltas) != 3 {
		t.Fatalf("recovered %+v, want the 3-delta intact prefix", j.Recovered())
	}
}

// TestZeroFilledTailIsTornTail: a power loss on a filesystem that persists a
// file's size before its data leaves zero bytes after the last record that
// reached the disk. At a frame boundary they read as a record of length 0
// with CRC 0, which the empty payload's CRC matches; writeFrame never writes
// an empty payload, so recovery must truncate there like any torn tail
// instead of refusing the journal.
func TestZeroFilledTailIsTornTail(t *testing.T) {
	dir := t.TempDir()
	wal := fill(t, dir, 3)
	whole, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("zero-filled wal tail refused: %v", err)
	}
	if st := j.Recovered(); st == nil || len(st.Deltas) != 3 {
		t.Fatalf("recovered %+v, want the 3-delta intact prefix", st)
	}
	if info, err := os.Stat(wal); err != nil || info.Size() != whole.Size() {
		t.Fatalf("wal not truncated back to its %d whole-record bytes: %v, %v", whole.Size(), info.Size(), err)
	}
	if err := j.AppendDelta("full-scan", "baseline", testDelta("baseline:0", 3, 9, fault.Aborted)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.Recovered(); st == nil || len(st.Deltas) != 4 {
		t.Fatalf("recovered %+v after repair+append, want 4 deltas", st)
	}
}

func TestCRCValidGarbageIsHardError(t *testing.T) {
	dir := t.TempDir()
	wal := fill(t, dir, 1)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose CRC holds but whose payload is not a record: software
	// corruption, not a torn append — recovery must refuse, not skip.
	payload := []byte(`{"kind":`)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("CRC-valid garbage record accepted")
	}
}

func TestForeignFileRejected(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, 1)
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), []byte("#!/bin/sh\necho hi\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign file accepted as wal")
	}
}

func TestCompactRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	u := jUniverse(t)
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := json.RawMessage(`{"design":"bench"}`)
	if err := j.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	acc := fault.NewAccumulator(u)
	for i := 0; i < 3; i++ {
		d := testDelta("baseline:0", i, fault.FID(i), fault.Detected)
		if err := acc.Apply(d); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendDelta("full-scan", "baseline", d); err != nil {
			t.Fatal(err)
		}
	}
	err = j.Compact(&CompactState{
		Meta:     meta,
		Channels: map[string]*fault.AccumulatorSnapshot{"full-scan": acc.Snapshot()},
		Done:     map[string]int{"baseline": 3},
		Results:  map[string]*ProviderResult{"baseline": {Provider: "baseline", Kind: "b", Data: json.RawMessage(`1`)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Old generation files are gone; the new pair exists.
	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); !os.IsNotExist(err) {
		t.Fatal("old wal survived compaction")
	}
	for _, f := range []string{"wal-1.log", "snap-1.log"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s after compaction: %v", f, err)
		}
	}
	// Evidence appended after the compaction lands in the new wal.
	post := testDelta("late:0", 0, 5, fault.Untestable)
	if err := j.AppendDelta("mission", "late", post); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.Recovered()
	if st == nil {
		t.Fatal("nothing recovered after compaction")
	}
	if string(st.Meta) != string(meta) {
		t.Fatalf("meta %s", st.Meta)
	}
	snap := st.Channels["full-scan"]
	if snap == nil {
		t.Fatal("channel snapshot not recovered")
	}
	r, err := fault.RestoreAccumulator(u, snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if r.Get(fault.FID(i)) != fault.Detected {
			t.Fatalf("fault %d lost across compaction", i)
		}
	}
	if st.Done["baseline"] != 3 || st.Results["baseline"] == nil {
		t.Fatalf("done/results lost: %v %v", st.Done, st.Results)
	}
	if len(st.Deltas) != 1 || st.Deltas[0].D.Source != "late:0" {
		t.Fatalf("post-compaction wal deltas %+v", st.Deltas)
	}
}

func TestStaleGenerationCleanup(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, 1)
	// Orphans of a crash mid-compaction: a future-generation snapshot that
	// never got its manifest flip, plus temp files.
	for _, f := range []string{"snap-7.log", "snap-7.log.tmp", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(magic), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, f := range []string{"snap-7.log", "snap-7.log.tmp", "MANIFEST.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived Open", f)
		}
	}
}

// TestOpenHalfCreatedJournal opens directories a crash left after a fresh
// journal's wal was created and before its MANIFEST was written. Without a
// MANIFEST a directory holds no journal, so Open must start a fresh one over
// whatever generation files it finds, and a reopen must recover exactly what
// was appended since.
func TestOpenHalfCreatedJournal(t *testing.T) {
	src := t.TempDir()
	j, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDelta("full-scan", "baseline", testDelta("baseline:0", 0, 1, fault.Detected)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	oneDelta, err := os.ReadFile(filepath.Join(src, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		files map[string][]byte
	}{
		{"bare wal", map[string][]byte{"wal-0.log": []byte(magic)}},
		{"one-delta wal and a stray snapshot", map[string][]byte{"wal-0.log": oneDelta, "snap-0.log": oneDelta}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			j, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st := j.Recovered(); st != nil {
				t.Fatalf("a directory without a MANIFEST recovers %+v", st)
			}
			d := testDelta("scenario x:0", 0, 2, fault.Untestable)
			if err := j.AppendDelta("mission", "scenario x", d); err != nil {
				t.Fatal(err)
			}
			j.Close()

			j, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			want := &State{
				Channels: map[string]*fault.AccumulatorSnapshot{},
				Deltas:   []Delta{{Channel: "mission", Provider: "scenario x", D: d}},
				Done:     map[string]int{},
				Results:  map[string]*ProviderResult{},
			}
			if st := j.Recovered(); !reflect.DeepEqual(st, want) {
				t.Fatalf("reopen recovers %+v, want %+v", st, want)
			}
		})
	}
}
