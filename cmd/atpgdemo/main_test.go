package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestWidthCheck pins the -width check: a width below 1 is refused before
// any netlist is built (dp.InputBus panics on a negative width, and 0 would
// build a demo with no datapath), and the smallest valid widths run the
// whole cross-check to "OK".
func TestWidthCheck(t *testing.T) {
	for _, tc := range []struct {
		width   int
		wantErr string
	}{
		{width: -3, wantErr: "-width must be >= 1, got -3"},
		{width: -1, wantErr: "-width must be >= 1, got -1"},
		{width: 0, wantErr: "-width must be >= 1, got 0"},
		{width: 1},
		{width: 2},
	} {
		var out bytes.Buffer
		err := run(&out, 0, tc.width)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("width %d: err = %v, want %q", tc.width, err, tc.wantErr)
			}
			if out.Len() != 0 {
				t.Errorf("width %d: refused run wrote %q", tc.width, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("width %d: %v", tc.width, err)
			continue
		}
		if !strings.HasSuffix(out.String(), "OK\n") {
			t.Errorf("width %d: output does not end in OK:\n%s", tc.width, out.String())
		}
	}
}
