package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode checks the decoder on arbitrary bytes: Decode either fails, or
// returns a message carrying exactly the payload its kind names, which
// Encode accepts. Encoding is then a fixed point: decoding the encoding and
// encoding again gives the same bytes. Bytes are compared, not structs,
// because omitempty turns an empty list into an absent field. The seed
// corpus in testdata/fuzz/FuzzDecode holds one valid message of each kind,
// a frame with extra payloads and a foreign-version frame.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		payloads := map[string]bool{
			KindDelta:    m.Delta != nil,
			KindEvent:    m.Event != nil,
			KindSnapshot: m.Snapshot != nil,
		}
		for kind, set := range payloads {
			if set != (kind == m.Kind) {
				t.Fatalf("decoded a %s message with %s payload set = %v", m.Kind, kind, set)
			}
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding %s does not decode: %v", enc, err)
		}
		enc2, err := Encode(again)
		if err != nil {
			t.Fatalf("re-decoded message does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
