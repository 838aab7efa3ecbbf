package logic

import "math/bits"

// WordBits is the number of independent machines/patterns packed in a PV.
const WordBits = 64

// PV is a dual-rail packed vector of 64 independent ternary values.
//
// Bit i of L0 set means value i is 0; bit i of L1 set means value i is 1;
// neither set means X. A bit must never be set in both rails: that state is
// reserved and the algebra never produces it from valid operands.
//
// PV supports two uses:
//   - pattern-parallel simulation: 64 input patterns evaluated at once;
//   - fault-parallel simulation: 64 faulty machines sharing one stimulus.
type PV struct {
	L0, L1 uint64
}

// Canonical packed constants.
var (
	PVAllZero = PV{L0: ^uint64(0)}
	PVAllOne  = PV{L1: ^uint64(0)}
	PVAllX    = PV{}
)

// PVSplat returns a PV holding v in all 64 slots: PVAllZero for Zero,
// PVAllOne for One, and PVAllX for X or any other value. It is one load
// from a table indexed by every V, not a switch: a simulator drives its
// inputs through it every cycle, and random stimulus bits would defeat a
// branch predictor.
func PVSplat(v V) PV { return splat[v] }

// splat is PVSplat's table. Every entry but Zero's and One's is the zero PV,
// X in every slot.
var splat = func() (t [256]PV) {
	t[Zero], t[One] = PVAllZero, PVAllOne
	return t
}()

// PVFromBits builds a fully-known PV from a bit mask (bit set means One).
func PVFromBits(mask uint64) PV { return PV{L0: ^mask, L1: mask} }

// Get returns the ternary value in slot i.
func (p PV) Get(i int) V {
	m := uint64(1) << uint(i)
	switch {
	case p.L1&m != 0:
		return One
	case p.L0&m != 0:
		return Zero
	}
	return X
}

// Set returns a copy of p with slot i replaced by v.
func (p PV) Set(i int, v V) PV {
	m := uint64(1) << uint(i)
	p.L0 &^= m
	p.L1 &^= m
	switch v {
	case Zero:
		p.L0 |= m
	case One:
		p.L1 |= m
	}
	return p
}

// KnownMask returns the mask of slots holding a known (non-X) value.
func (p PV) KnownMask() uint64 { return p.L0 | p.L1 }

// OnesCount returns the number of slots holding One.
func (p PV) OnesCount() int { return bits.OnesCount64(p.L1) }

// Diff returns the mask of slots where p and q hold different known values.
// Slots where either side is X are not reported.
func (p PV) Diff(q PV) uint64 { return (p.L0 & q.L1) | (p.L1 & q.L0) }

// Eq reports whether the two vectors are identical in all slots.
func (p PV) Eq(q PV) bool { return p == q }

// Not returns the slot-wise complement.
func (p PV) Not() PV { return PV{L0: p.L1, L1: p.L0} }

// And returns the slot-wise ternary conjunction.
func (p PV) And(q PV) PV {
	return PV{L0: p.L0 | q.L0, L1: p.L1 & q.L1}
}

// Or returns the slot-wise ternary disjunction.
func (p PV) Or(q PV) PV {
	return PV{L0: p.L0 & q.L0, L1: p.L1 | q.L1}
}

// Xor returns the slot-wise ternary exclusive-or. Slots where either operand
// is X yield X.
func (p PV) Xor(q PV) PV {
	known := (p.L0 | p.L1) & (q.L0 | q.L1)
	ones := (p.L0 & q.L1) | (p.L1 & q.L0)
	return PV{L0: known &^ ones, L1: known & ones}
}

// PVMux returns the slot-wise 2:1 multiplexer value: d0 where s=0, d1 where
// s=1; where s is X the result is known only in slots where d0 and d1 agree.
func PVMux(s, d0, d1 PV) PV {
	out := PV{
		L0: (s.L0 & d0.L0) | (s.L1 & d1.L0),
		L1: (s.L0 & d0.L1) | (s.L1 & d1.L1),
	}
	sx := ^(s.L0 | s.L1)
	agree0 := d0.L0 & d1.L0
	agree1 := d0.L1 & d1.L1
	out.L0 |= sx & agree0
	out.L1 |= sx & agree1
	return out
}

// Select returns a PV taking the value of t in slots of mask and f elsewhere.
func Select(mask uint64, t, f PV) PV {
	return PV{
		L0: (t.L0 & mask) | (f.L0 &^ mask),
		L1: (t.L1 & mask) | (f.L1 &^ mask),
	}
}

// Valid reports whether no slot has both rails set.
func (p PV) Valid() bool { return p.L0&p.L1 == 0 }
