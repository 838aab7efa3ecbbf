package journal

import (
	"reflect"
	"testing"
)

// FuzzReadFrames checks the frame reader journal recovery runs over every
// wal and snapshot file, on arbitrary bytes: it never panics, the intact
// prefix it reports lies inside the input, and reading exactly that prefix
// again returns the same records and ends cleanly (an empty prefix reads as
// a torn file header). The seed corpus in testdata/fuzz/FuzzReadFrames holds
// an empty file, the bare magic, one delta frame, a torn record header, a
// torn payload, a CRC mismatch and a CRC-valid record that is not JSON.
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
