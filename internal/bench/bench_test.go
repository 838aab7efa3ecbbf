package bench

import (
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/testutil"
)

// TestNamesStayUnique pins that the benchmark design and every clone a
// campaign prepares from it name each gate and each net once: the design
// itself, each scenario's clone after its transforms, and the mission-reach
// clone extended to the depths a sweep reaches. A netlist keeps no name
// index that would refuse a duplicate, and a duplicated name is one that
// Tie and OneHot can no longer find.
func TestNamesStayUnique(t *testing.T) {
	for _, width := range []int{1, 2, 8, 32, 64} {
		n := Build(width)
		if dups := testutil.DuplicateNames(n); len(dups) > 0 {
			t.Errorf("width %d design: duplicate names %v", width, dups)
		}
		for _, sc := range Scenarios(2) {
			c := n.Clone()
			ur, _, err := constraint.Apply(c, sc.Transforms...)
			if err != nil {
				t.Fatalf("width %d %s: %v", width, sc.Name, err)
			}
			if dups := testutil.DuplicateNames(c); len(dups) > 0 {
				t.Errorf("width %d %s clone: duplicate names %v", width, sc.Name, dups)
			}
			if ur == nil {
				continue
			}
			for ur.Frames() < 6 {
				if err := ur.Extend(); err != nil {
					t.Fatal(err)
				}
			}
			if dups := testutil.DuplicateNames(c); len(dups) > 0 {
				t.Errorf("width %d %s clone at 6 frames: duplicate names %v", width, sc.Name, dups)
			}
		}
	}
}
