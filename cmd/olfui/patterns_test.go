package main

import (
	"bytes"
	"testing"

	"olfui/internal/bench"
	"olfui/internal/logic"
)

// FuzzParsePatternSets feeds arbitrary bytes to the stimulus parser, on top
// of the seed corpus in testdata/fuzz/FuzzParsePatternSets. Parsing must
// fail or return uniquely and non-emptily named sets, each with at least one
// cycle, every cycle holding exactly one 0, 1 or X per primary input; it
// must never panic.
func FuzzParsePatternSets(f *testing.F) {
	n := bench.Build(1) // 11 primary inputs
	pis := len(n.PrimaryInputs())
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, err := parsePatternSets(n, "fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(sets) == 0 {
			t.Fatal("no error and no sequences")
		}
		seen := map[string]bool{}
		for _, set := range sets {
			if set.Name == "" || seen[set.Name] {
				t.Fatalf("sequence name %q empty or repeated", set.Name)
			}
			seen[set.Name] = true
			if len(set.Stim.Cycles) == 0 || len(set.Stim.Inputs) != pis {
				t.Fatalf("sequence %q: %d cycles over %d inputs, want cycles over %d",
					set.Name, len(set.Stim.Cycles), len(set.Stim.Inputs), pis)
			}
			for c, row := range set.Stim.Cycles {
				if len(row) != pis {
					t.Fatalf("sequence %q cycle %d has %d values, want %d", set.Name, c, len(row), pis)
				}
				for _, v := range row {
					if v != logic.Zero && v != logic.One && v != logic.X {
						t.Fatalf("sequence %q cycle %d holds %v", set.Name, c, v)
					}
				}
			}
		}
	})
}
