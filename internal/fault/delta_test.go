package fault

import (
	"errors"
	"math/rand"
	"testing"

	"olfui/internal/netlist"
)

// deltaUniverse builds a small universe (the content is irrelevant to the
// merge algebra; only the fault count matters).
func deltaUniverse(t *testing.T) *Universe {
	t.Helper()
	n := netlist.New("delta")
	a, b := n.Input("a"), n.Input("b")
	x := n.And("x", a, b)
	y := n.Or("y", x, a)
	n.OutputPort("po", n.Xor("z", x, y))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewUniverse(n)
}

func TestMergeStatusLattice(t *testing.T) {
	all := []Status{Undetected, Aborted, Detected, Untestable}
	rank := map[Status]int{Undetected: 0, Aborted: 1, Detected: 2, Untestable: 2}
	for _, a := range all {
		for _, b := range all {
			m1, ok1 := MergeStatus(a, b)
			m2, ok2 := MergeStatus(b, a)
			wantConflict := (a == Detected && b == Untestable) || (a == Untestable && b == Detected)
			if ok1 == wantConflict || ok2 == wantConflict {
				t.Fatalf("MergeStatus(%v,%v): conflict flags %v/%v, want conflict=%v", a, b, !ok1, !ok2, wantConflict)
			}
			if wantConflict {
				continue
			}
			// Commutative and an upper bound of both operands.
			if m1 != m2 {
				t.Fatalf("MergeStatus(%v,%v)=%v but reversed gives %v", a, b, m1, m2)
			}
			if rank[m1] < rank[a] || rank[m1] < rank[b] {
				t.Fatalf("MergeStatus(%v,%v)=%v is not an upper bound", a, b, m1)
			}
			if m1 != a && m1 != b {
				t.Fatalf("MergeStatus(%v,%v)=%v is not one of its operands", a, b, m1)
			}
		}
		// Idempotent.
		if m, ok := MergeStatus(a, a); !ok || m != a {
			t.Fatalf("MergeStatus(%v,%v) not idempotent: %v %v", a, a, m, ok)
		}
	}
}

// TestAccumulatorOrderIndependence is the merge-algebra property the delta
// protocol rests on: interleaving non-conflicting streams in any source
// order yields byte-identical merged statuses.
func TestAccumulatorOrderIndependence(t *testing.T) {
	u := deltaUniverse(t)
	nf := u.NumFaults()
	rng := rand.New(rand.NewSource(7))

	// Build per-source ordered streams. Terminal statuses are assigned per
	// fault up front so no pair of sources can conflict; Aborted may appear
	// anywhere below a fault's terminal status.
	terminal := make([]Status, nf)
	for i := range terminal {
		terminal[i] = []Status{Detected, Untestable}[rng.Intn(2)]
	}
	sources := []string{"s1", "s2", "s3", "s4"}
	streams := make(map[string][]Delta)
	for _, src := range sources {
		var seq int
		for c := 0; c < 3; c++ {
			d := Delta{Source: src, Seq: seq}
			for f := 0; f < nf; f++ {
				if rng.Intn(3) != 0 {
					continue
				}
				st := terminal[f]
				if rng.Intn(2) == 0 {
					st = Aborted
				}
				d.FIDs = append(d.FIDs, FID(f))
				d.Statuses = append(d.Statuses, st)
			}
			seq++
			streams[src] = append(streams[src], d)
		}
	}

	apply := func(order []string) *StatusMap {
		t.Helper()
		acc := NewAccumulator(u)
		next := map[string]int{}
		for len(order) > 0 {
			i := rng.Intn(len(order))
			src := order[i]
			if err := acc.Apply(streams[src][next[src]]); err != nil {
				t.Fatal(err)
			}
			next[src]++
			if next[src] == len(streams[src]) {
				order = append(order[:i], order[i+1:]...)
			}
		}
		return acc.Status()
	}

	var ref *StatusMap
	for trial := 0; trial < 10; trial++ {
		m := apply(append([]string(nil), sources...))
		if ref == nil {
			ref = m
			continue
		}
		for f := 0; f < nf; f++ {
			if m.Get(FID(f)) != ref.Get(FID(f)) {
				t.Fatalf("trial %d: fault %d merged to %v, reference %v",
					trial, f, m.Get(FID(f)), ref.Get(FID(f)))
			}
		}
	}
}

func TestAccumulatorConflict(t *testing.T) {
	u := deltaUniverse(t)
	acc := NewAccumulator(u)
	if err := acc.Apply(Delta{Source: "atpg", FIDs: []FID{3}, Statuses: []Status{Untestable}}); err != nil {
		t.Fatal(err)
	}
	err := acc.Apply(Delta{Source: "patterns", FIDs: []FID{3}, Statuses: []Status{Detected}})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if ce.ID != 3 || ce.Have != Untestable || ce.Incoming != Detected ||
		ce.HaveSrc != "atpg" || ce.IncomingSrc != "patterns" {
		t.Fatalf("conflict details wrong: %+v", ce)
	}
}

func TestAccumulatorProtocol(t *testing.T) {
	u := deltaUniverse(t)
	acc := NewAccumulator(u)
	if err := acc.Apply(Delta{Source: "s", Seq: 1}); err == nil {
		t.Error("out-of-order first delta: want error")
	}
	if err := acc.Apply(Delta{Source: ""}); err == nil {
		t.Error("empty source: want error")
	}
	if err := acc.Apply(Delta{Source: "s", FIDs: []FID{0}, Statuses: nil}); err == nil {
		t.Error("length mismatch: want error")
	}
	if err := acc.Apply(Delta{Source: "s", FIDs: []FID{FID(u.NumFaults())}, Statuses: []Status{Detected}}); err == nil {
		t.Error("out-of-range fid: want error")
	}
	if err := acc.Apply(Delta{Source: "s", Seq: 0, FIDs: []FID{1}, Statuses: []Status{Aborted}}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Apply(Delta{Source: "s", Seq: 0}); err == nil {
		t.Error("replayed seq: want error")
	}
	if got := acc.Get(1); got != Aborted {
		t.Errorf("fault 1: %v, want aborted", got)
	}
	if got := acc.Source(1); got != "s" {
		t.Errorf("source of fault 1: %q, want s", got)
	}
	if got := acc.Source(0); got != "" {
		t.Errorf("source of undetected fault: %q, want empty", got)
	}
	// Aborted upgrades to a terminal status; the source follows.
	if err := acc.Apply(Delta{Source: "t", Seq: 0, FIDs: []FID{1}, Statuses: []Status{Detected}}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Get(1); got != Detected {
		t.Errorf("fault 1 after upgrade: %v, want detected", got)
	}
	if got := acc.Source(1); got != "t" {
		t.Errorf("source after upgrade: %q, want t", got)
	}
}
