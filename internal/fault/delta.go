package fault

import "fmt"

// This file implements the streaming evidence protocol: ordered Delta
// batches from independent sources (providers, sweep depths, remote workers) fold
// into a StatusMap through a monotone lattice merge, so partial results can
// arrive and combine in any interleaving without ever weakening a verdict.
//
// The evidence lattice orders statuses by how much they prove:
//
//	Undetected  <  Aborted  <  Detected
//	                        <  Untestable
//
// Undetected is "no claim", Aborted is "searched and gave up" (a later
// pattern or a luckier search may still upgrade it), and Detected and
// Untestable are both terminal proofs — and mutually exclusive: a pattern
// demonstrating detection and a proof of untestability cannot both be true
// of one fault in one evidence domain, so merging them is a hard
// ConflictError rather than a silent preference. Such a conflict always
// indicates an unsound transform or a stimulus that violates the mission
// model it is graded against.

// Delta is one ordered batch of evidence from a single source. FIDs and
// Statuses are aligned; Undetected entries are no-ops (carrying them is
// legal but pointless). Seq numbers each source's deltas from zero so a
// receiver can detect reordered or replayed streams — the transport-level
// guarantee concurrent and remote producers need.
type Delta struct {
	Source   string
	Seq      int
	FIDs     []FID
	Statuses []Status
}

// MergeStatus returns the join of a and b in the evidence lattice. ok is
// false on the one incomparable pair, Detected vs Untestable; the returned
// status is then a.
func MergeStatus(a, b Status) (st Status, ok bool) {
	switch {
	case a == b:
		return a, true
	case a == Undetected:
		return b, true
	case b == Undetected:
		return a, true
	case a == Aborted:
		return b, true
	case b == Aborted:
		return a, true
	}
	return a, false
}

// ConflictError reports a Detected-vs-Untestable merge: two sources proved
// incompatible facts about one fault.
type ConflictError struct {
	ID                   FID
	Have, Incoming       Status
	HaveSrc, IncomingSrc string
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("fault %d: %v (from %q) conflicts with %v (from %q): unsound transform or mission-violating stimulus",
		e.ID, e.Incoming, e.IncomingSrc, e.Have, e.HaveSrc)
}

// Accumulator folds Delta streams into a StatusMap via the lattice merge.
// The merged statuses are independent of the interleaving of non-conflicting
// streams (the join is commutative, associative and idempotent); only the
// Source attribution of a fault can depend on arrival order, since it names
// the stream that last raised the fault's status. An Accumulator is not safe
// for concurrent use — callers serialize Apply.
type Accumulator struct {
	m       *StatusMap
	src     []int32 // index into sources of the delta that set m.st[i], -1 if none
	sources []string
	srcIdx  map[string]int32
	nextSeq map[string]int
}

// NewAccumulator returns an empty accumulator sized for u.
func NewAccumulator(u *Universe) *Accumulator {
	a := &Accumulator{
		m:       NewStatusMap(u),
		src:     make([]int32, u.NumFaults()),
		srcIdx:  map[string]int32{},
		nextSeq: map[string]int{},
	}
	for i := range a.src {
		a.src[i] = -1
	}
	return a
}

// Apply merges one delta. It fails on a malformed delta (length mismatch,
// FID out of range, empty source), on a sequence-protocol violation (Seq
// must count 0,1,2,… per source), and on a lattice conflict (ConflictError).
// Malformed and out-of-order deltas are rejected before any entry is merged
// or the sequence advances; only a conflict can leave a prefix of its delta
// merged, and campaigns treat conflicts as fatal, so partial application is
// never observed.
func (a *Accumulator) Apply(d Delta) error {
	if d.Source == "" {
		return fmt.Errorf("delta with empty source")
	}
	if len(d.FIDs) != len(d.Statuses) {
		return fmt.Errorf("delta %q#%d: %d fids vs %d statuses", d.Source, d.Seq, len(d.FIDs), len(d.Statuses))
	}
	if want := a.nextSeq[d.Source]; d.Seq != want {
		return fmt.Errorf("delta %q#%d: out of order, want seq %d", d.Source, d.Seq, want)
	}
	for _, id := range d.FIDs {
		if id < 0 || int(id) >= len(a.src) {
			return fmt.Errorf("delta %q#%d: fault %d out of range", d.Source, d.Seq, id)
		}
	}
	a.nextSeq[d.Source] = d.Seq + 1
	si, ok := a.srcIdx[d.Source]
	if !ok {
		si = int32(len(a.sources))
		a.sources = append(a.sources, d.Source)
		a.srcIdx[d.Source] = si
	}
	for i, id := range d.FIDs {
		in := d.Statuses[i]
		if in == Undetected {
			continue
		}
		have := a.m.Get(id)
		merged, ok := MergeStatus(have, in)
		if !ok {
			return &ConflictError{
				ID: id, Have: have, Incoming: in,
				HaveSrc: a.sourceOf(id), IncomingSrc: d.Source,
			}
		}
		if merged != have {
			a.m.Set(id, merged)
			a.src[id] = si
		}
	}
	return nil
}

// Replay applies one delta of a re-delivered stream, tolerating an
// already-applied prefix: a delta whose Seq is below the source's next
// expected sequence number is rejected as a duplicate (applied false, nil
// error) without touching the lattice, a delta at exactly the expected Seq
// applies normally, and a delta beyond it is a gap — a protocol error, like
// any other out-of-order delivery. This is the restore-side half of the
// snapshot contract: an accumulator restored from a Snapshot rejects exactly
// the prefix of a replayed stream it has already applied and accepts the
// stream's continuation, which is what makes journal replay and re-delivered
// remote streams idempotent.
func (a *Accumulator) Replay(d Delta) (applied bool, err error) {
	if d.Source != "" && d.Seq < a.nextSeq[d.Source] {
		return false, nil
	}
	if err := a.Apply(d); err != nil {
		return false, err
	}
	return true, nil
}

// ResetSource forgets the sequence state of one source stream: the next delta
// from src must carry Seq 0 again, as if the source had never emitted. Merged
// evidence and attribution are untouched — the lattice join is idempotent and
// monotone, so a re-executed source re-announcing evidence it already proved
// is harmless. This is the resume hook for providers that were interrupted
// mid-stream: their recorded evidence is kept, their stream restarts from
// zero.
func (a *Accumulator) ResetSource(src string) { delete(a.nextSeq, src) }

// AccumulatorSnapshot is the full serializable state of an Accumulator:
// merged statuses, per-fault source attribution (an index into Sources, -1
// while Undetected), the source name table, and each source's next expected
// sequence number. RestoreAccumulator rebuilds an equivalent accumulator
// from it.
type AccumulatorSnapshot struct {
	Statuses    []Status
	Attribution []int32
	Sources     []string
	NextSeq     map[string]int
}

// Snapshot captures the accumulator's state as an independent deep copy,
// safe to serialize or restore while the original keeps merging.
func (a *Accumulator) Snapshot() *AccumulatorSnapshot {
	s := &AccumulatorSnapshot{
		Statuses:    append([]Status(nil), a.m.st...),
		Attribution: append([]int32(nil), a.src...),
		Sources:     append([]string(nil), a.sources...),
		NextSeq:     make(map[string]int, len(a.nextSeq)),
	}
	for src, seq := range a.nextSeq {
		s.NextSeq[src] = seq
	}
	return s
}

// RestoreAccumulator rebuilds an accumulator for u from a snapshot taken on
// the same universe. The restored accumulator is equivalent to the one the
// snapshot was taken from: byte-identical statuses and source attribution,
// and per-source sequence state that rejects exactly the already-applied
// prefix of a replayed stream (see Replay). Every structural invariant is
// validated so a corrupted or foreign snapshot fails here rather than
// corrupting a merge.
func RestoreAccumulator(u *Universe, s *AccumulatorSnapshot) (*Accumulator, error) {
	if len(s.Statuses) != u.NumFaults() {
		return nil, fmt.Errorf("fault: snapshot holds %d statuses, universe has %d faults",
			len(s.Statuses), u.NumFaults())
	}
	if len(s.Attribution) != len(s.Statuses) {
		return nil, fmt.Errorf("fault: snapshot attribution length %d vs %d statuses",
			len(s.Attribution), len(s.Statuses))
	}
	srcIdx := make(map[string]int32, len(s.Sources))
	for i, src := range s.Sources {
		if src == "" {
			return nil, fmt.Errorf("fault: snapshot source %d is empty", i)
		}
		if _, dup := srcIdx[src]; dup {
			return nil, fmt.Errorf("fault: snapshot source %q duplicated", src)
		}
		srcIdx[src] = int32(i)
	}
	for id, st := range s.Statuses {
		if st >= statusCount {
			return nil, fmt.Errorf("fault: snapshot fault %d holds invalid status %d", id, uint8(st))
		}
		at := s.Attribution[id]
		if at < -1 || int(at) >= len(s.Sources) {
			return nil, fmt.Errorf("fault: snapshot fault %d attributes out-of-range source %d", id, at)
		}
		if (st == Undetected) != (at == -1) {
			return nil, fmt.Errorf("fault: snapshot fault %d: status %v with attribution %d", id, st, at)
		}
	}
	a := &Accumulator{
		m:       &StatusMap{st: append([]Status(nil), s.Statuses...)},
		src:     append([]int32(nil), s.Attribution...),
		sources: append([]string(nil), s.Sources...),
		srcIdx:  srcIdx,
		nextSeq: make(map[string]int, len(s.NextSeq)),
	}
	for src, seq := range s.NextSeq {
		if seq < 0 {
			return nil, fmt.Errorf("fault: snapshot source %q has negative next seq %d", src, seq)
		}
		a.nextSeq[src] = seq
	}
	return a, nil
}

func (a *Accumulator) sourceOf(id FID) string {
	if s := a.src[id]; s >= 0 {
		return a.sources[s]
	}
	return ""
}

// Status returns the merged map. It is live — later Apply calls mutate it —
// and must not be written by the caller.
func (a *Accumulator) Status() *StatusMap { return a.m }

// Get returns the merged status of id.
func (a *Accumulator) Get(id FID) Status { return a.m.Get(id) }

// Source returns the name of the stream whose evidence last raised id's
// status, or "" while id is Undetected.
func (a *Accumulator) Source(id FID) string { return a.sourceOf(id) }
