package fault

import "math/bits"

// Set is a bitset over the dense fault IDs of one Universe.
type Set struct {
	words []uint64
}

// NewSet returns an empty set sized for u.
func NewSet(u *Universe) *Set {
	return &Set{words: make([]uint64, (u.NumFaults()+63)/64)}
}

// Add inserts id.
func (s *Set) Add(id FID) { s.words[id>>6] |= 1 << uint(id&63) }

// Remove deletes id.
func (s *Set) Remove(id FID) { s.words[id>>6] &^= 1 << uint(id&63) }

// Has reports membership.
func (s *Set) Has(id FID) bool { return s.words[id>>6]&(1<<uint(id&63)) != 0 }

// Clear removes every member, keeping the set's storage.
func (s *Set) Clear() { clear(s.words) }

// Count returns the cardinality.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...)}
}

// UnionWith adds all elements of t to s.
func (s *Set) UnionWith(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// DiffWith removes all elements of t from s.
func (s *Set) DiffWith(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// IntersectWith keeps only elements also in t.
func (s *Set) IntersectWith(t *Set) {
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// ForEach calls fn for every member in ascending order.
func (s *Set) ForEach(fn func(FID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(FID(wi*64 + b))
			w &= w - 1
		}
	}
}

// IDs returns the members in ascending order.
func (s *Set) IDs() []FID {
	out := make([]FID, 0, s.Count())
	s.ForEach(func(id FID) { out = append(out, id) })
	return out
}
