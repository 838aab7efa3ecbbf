package fault

import "fmt"

// Status is the per-fault classification maintained by test generation.
type Status uint8

// Fault statuses. The zero value is Undetected so a fresh StatusMap needs no
// initialization pass.
const (
	Undetected Status = iota // not yet targeted or detected
	Detected                 // a pattern detecting the fault exists
	Untestable               // proven untestable: ATPG exhausted the search space
	Aborted                  // ATPG gave up at the backtrack limit
	statusCount
)

var statusNames = [statusCount]string{"undetected", "detected", "untestable", "aborted"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// StatusMap tracks a Status per dense fault ID of one Universe.
type StatusMap struct {
	st []Status
}

// NewStatusMap returns an all-Undetected map sized for u.
func NewStatusMap(u *Universe) *StatusMap {
	return &StatusMap{st: make([]Status, u.NumFaults())}
}

// Get returns the status of id.
func (m *StatusMap) Get(id FID) Status { return m.st[id] }

// Set records the status of id.
func (m *StatusMap) Set(id FID, s Status) { m.st[id] = s }

// Len returns the universe size the map was created for.
func (m *StatusMap) Len() int { return len(m.st) }

// Counts tallies the map by status.
func (m *StatusMap) Counts() map[Status]int {
	c := make(map[Status]int, statusCount)
	for _, s := range m.st {
		c[s]++
	}
	return c
}

// FaultsWith returns the IDs currently holding status s, in ascending order.
func (m *StatusMap) FaultsWith(s Status) []FID {
	var out []FID
	for i, st := range m.st {
		if st == s {
			out = append(out, FID(i))
		}
	}
	return out
}

// SpreadClasses copies every class representative's status onto all members
// of its equivalence class. Structural equivalence preserves testability, so
// a verdict proven for the representative holds for the whole class.
func (m *StatusMap) SpreadClasses(c *Collapse) {
	for i := range m.st {
		m.st[i] = m.st[c.Rep(FID(i))]
	}
}

// Project translates a StatusMap recorded against universe src onto universe
// dst. Because circuit manipulation preserves gate IDs, fault sites are
// shared between the universes even though their dense numbering differs
// (dead or synthetic gates contribute no sites). Faults whose site does not
// exist in dst are dropped; dst faults with no src counterpart (e.g. faults
// on a gate the manipulated clone tombstoned) stay Undetected. This is how
// the identification flow attributes verdicts proven on a mission-constrained
// clone back to the original fault universe.
func Project(src *Universe, m *StatusMap, dst *Universe) *StatusMap {
	out := NewStatusMap(dst)
	for id := 0; id < src.NumFaults(); id++ {
		s := m.Get(FID(id))
		if s == Undetected {
			continue
		}
		if did := dst.IDOf(src.FaultOf(FID(id))); did != InvalidFID {
			out.Set(did, s)
		}
	}
	return out
}

// Bytes returns the map's statuses as one byte per fault, in dense FID
// order — the raw serialization used by the wire protocol and the journal.
func (m *StatusMap) Bytes() []byte {
	out := make([]byte, len(m.st))
	for i, s := range m.st {
		out[i] = byte(s)
	}
	return out
}

// RestoreStatusMap rebuilds a StatusMap for u from a Bytes serialization,
// validating the length and every status value.
func RestoreStatusMap(u *Universe, raw []byte) (*StatusMap, error) {
	if len(raw) != u.NumFaults() {
		return nil, fmt.Errorf("fault: status map holds %d entries, universe has %d faults",
			len(raw), u.NumFaults())
	}
	st := make([]Status, len(raw))
	for i, b := range raw {
		if Status(b) >= statusCount {
			return nil, fmt.Errorf("fault: status map entry %d holds invalid status %d", i, b)
		}
		st[i] = Status(b)
	}
	return &StatusMap{st: st}, nil
}

// Overlay copies every non-Undetected entry of src into m. Both maps must be
// sized for the same universe (or identically enumerated clones of it). It
// is the merge for sources that partition the class list, whose entries
// never collide, so no lattice arbitration is needed — use
// MergeStatus/Accumulator wherever sources can overlap.
func (m *StatusMap) Overlay(src *StatusMap) {
	if len(m.st) != len(src.st) {
		panic(fmt.Sprintf("fault: Overlay size mismatch: %d vs %d", len(m.st), len(src.st)))
	}
	for id, s := range src.st {
		if s != Undetected {
			m.st[id] = s
		}
	}
}
