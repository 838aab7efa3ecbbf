package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadFrames checks the frame reader journal recovery runs over every
// wal and snapshot file, on arbitrary bytes: it never panics, the intact
// prefix it reports lies inside the input, and reading exactly that prefix
// again returns the same records and ends cleanly (an empty prefix reads as
// a torn file header). The seed corpus in testdata/fuzz/FuzzReadFrames holds
// an empty file, the bare magic, one delta frame, a torn record header, a
// torn payload, a CRC mismatch, a CRC-valid record that is not JSON and a
// delta frame followed by a zero-filled tail.
func FuzzReadFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, _ := readFrames(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside the %d input bytes", valid, len(data))
		}
		again, validAgain, tail := readFrames(data[:valid])
		if validAgain != valid {
			t.Fatalf("prefix of %d bytes reads %d valid bytes", valid, validAgain)
		}
		if valid > 0 && tail != nil {
			t.Fatalf("prefix of %d bytes does not end cleanly: %v", valid, tail)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("prefix of %d bytes reads %d records, the whole input %d", valid, len(again), len(recs))
		}
	})
}

// FuzzOpen runs journal recovery end to end on arbitrary directories: it
// writes the fuzzed bytes as wal-N.log for the fuzzed generation N, as
// snap-N.log when withSnap is set and as MANIFEST when withManifest is set,
// then calls Open. Open must return an error or a journal, never panic; over
// a directory without a MANIFEST, which holds no journal, it must return a
// fresh journal that recovers nothing. After a successful Open and Close, a
// second Open must succeed and recover a State deep-equal to the first: the
// tail the first Open repaired reads back clean. The seed corpus in
// testdata/fuzz/FuzzOpen holds a fresh skeleton, a one-delta wal, a torn wal
// tail, a zero-filled wal tail, a headerless wal, a snapshot plus wal, a
// manifest naming a missing generation, a corrupt snapshot and a wal plus
// snapshot without a MANIFEST.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest []byte, gen uint8, wal, snap []byte, withSnap, withManifest bool) {
		dir := t.TempDir()
		write := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if withManifest {
			write("MANIFEST", manifest)
		}
		write(walName(uint64(gen)), wal)
		if withSnap {
			write(snapName(uint64(gen)), snap)
		}
		j, err := Open(dir, Options{})
		if !withManifest {
			if err != nil {
				t.Fatalf("Open of a directory without a MANIFEST: %v", err)
			}
			if st := j.Recovered(); st != nil {
				t.Fatalf("a directory without a MANIFEST recovers %+v", st)
			}
		}
		if err != nil {
			return
		}
		first := j.Recovered()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopening a journal Open accepted: %v", err)
		}
		defer j.Close()
		if again := j.Recovered(); !reflect.DeepEqual(first, again) {
			t.Fatalf("reopening recovers %+v, the first Open %+v", again, first)
		}
	})
}
