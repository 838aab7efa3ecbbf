// Package dp provides gate-level datapath building blocks — buses, adders,
// multiplexer trees, comparators, shifters, a multiplier and registers —
// used by the benchmark design and by tests and benchmarks that need
// realistic combinational structure.
//
// All blocks expand into primitive gates of package netlist; nothing here is
// behavioural. Generated gate and net names are prefixed with the block name
// so large designs remain debuggable.
package dp

import (
	"fmt"

	"olfui/internal/netlist"
)

// Bus is an ordered list of nets, index 0 = least significant bit.
type Bus []netlist.NetID

// InputBus creates width primary inputs named name[0..width-1].
func InputBus(n *netlist.Netlist, name string, width int) Bus {
	b := make(Bus, width)
	for i := range b {
		b[i] = n.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return b
}

// OutputBus creates one primary output per bit, named name[i].
func OutputBus(n *netlist.Netlist, name string, b Bus) []netlist.GateID {
	out := make([]netlist.GateID, len(b))
	for i, net := range b {
		out[i] = n.OutputPort(fmt.Sprintf("%s[%d]", name, i), net)
	}
	return out
}

// NotBus inverts every bit.
func NotBus(n *netlist.Netlist, name string, a Bus) Bus {
	b := make(Bus, len(a))
	for i := range a {
		b[i] = n.Not(fmt.Sprintf("%s[%d]", name, i), a[i])
	}
	return b
}

// AndBus computes the bitwise AND of two equal-width buses.
func AndBus(n *netlist.Netlist, name string, a, b Bus) Bus {
	mustSameWidth(a, b)
	o := make(Bus, len(a))
	for i := range a {
		o[i] = n.And(fmt.Sprintf("%s[%d]", name, i), a[i], b[i])
	}
	return o
}

// XorBus computes the bitwise XOR of two equal-width buses.
func XorBus(n *netlist.Netlist, name string, a, b Bus) Bus {
	mustSameWidth(a, b)
	o := make(Bus, len(a))
	for i := range a {
		o[i] = n.Xor(fmt.Sprintf("%s[%d]", name, i), a[i], b[i])
	}
	return o
}

// FullAdder returns (sum, carry) for one bit position.
func FullAdder(n *netlist.Netlist, name string, a, b, cin netlist.NetID) (sum, cout netlist.NetID) {
	axb := n.Xor(name+"_axb", a, b)
	sum = n.Xor(name+"_s", axb, cin)
	t1 := n.And(name+"_t1", a, b)
	t2 := n.And(name+"_t2", axb, cin)
	cout = n.Or(name+"_c", t1, t2)
	return sum, cout
}

// RippleAdder adds two equal-width buses with carry-in, returning the sum and
// carry-out. This is the "adder used in a branch address calculation" of the
// paper's §3.3.
func RippleAdder(n *netlist.Netlist, name string, a, b Bus, cin netlist.NetID) (Bus, netlist.NetID) {
	mustSameWidth(a, b)
	sum := make(Bus, len(a))
	c := cin
	for i := range a {
		sum[i], c = FullAdder(n, fmt.Sprintf("%s_fa%d", name, i), a[i], b[i], c)
	}
	return sum, c
}

// Subtractor computes a - b (two's complement) and returns difference and
// borrow-free carry-out (1 when a >= b, unsigned).
func Subtractor(n *netlist.Netlist, name string, a, b Bus) (Bus, netlist.NetID) {
	nb := NotBus(n, name+"_nb", b)
	one := n.Tie1(name + "_cin1")
	return RippleAdder(n, name+"_add", a, nb, one)
}

// Mux2Bus selects between two equal-width buses: s=0 -> d0, s=1 -> d1.
func Mux2Bus(n *netlist.Netlist, name string, d0, d1 Bus, s netlist.NetID) Bus {
	mustSameWidth(d0, d1)
	o := make(Bus, len(d0))
	for i := range d0 {
		o[i] = n.Mux2(fmt.Sprintf("%s[%d]", name, i), d0[i], d1[i], s)
	}
	return o
}

// MuxTree selects inputs[sel] via a balanced tree of 2:1 muxes. The number of
// inputs must be a power of two and len(sel) = log2(len(inputs)).
func MuxTree(n *netlist.Netlist, name string, inputs []Bus, sel Bus) Bus {
	if len(inputs) == 0 || len(inputs)&(len(inputs)-1) != 0 {
		panic("dp: MuxTree needs a power-of-two input count")
	}
	if 1<<uint(len(sel)) != len(inputs) {
		panic(fmt.Sprintf("dp: MuxTree: %d inputs need %d select bits, got %d",
			len(inputs), log2(len(inputs)), len(sel)))
	}
	layer := inputs
	for lvl := 0; len(layer) > 1; lvl++ {
		next := make([]Bus, len(layer)/2)
		for i := range next {
			next[i] = Mux2Bus(n, fmt.Sprintf("%s_l%d_%d", name, lvl, i),
				layer[2*i], layer[2*i+1], sel[lvl])
		}
		layer = next
	}
	return layer[0]
}

// EqBus returns a net that is 1 when the two buses carry equal values.
func EqBus(n *netlist.Netlist, name string, a, b Bus) netlist.NetID {
	mustSameWidth(a, b)
	bits := make([]netlist.NetID, len(a))
	for i := range a {
		bits[i] = n.Xnor(fmt.Sprintf("%s_x%d", name, i), a[i], b[i])
	}
	return ReduceAnd(n, name+"_and", bits)
}

// ReduceAnd builds a balanced AND tree over the given nets.
func ReduceAnd(n *netlist.Netlist, name string, bits []netlist.NetID) netlist.NetID {
	return reduce(n, name, bits, func(nm string, a, b netlist.NetID) netlist.NetID {
		return n.And(nm, a, b)
	})
}

// ReduceOr builds a balanced OR tree over the given nets.
func ReduceOr(n *netlist.Netlist, name string, bits []netlist.NetID) netlist.NetID {
	return reduce(n, name, bits, func(nm string, a, b netlist.NetID) netlist.NetID {
		return n.Or(nm, a, b)
	})
}

func reduce(n *netlist.Netlist, name string, bits []netlist.NetID,
	op func(string, netlist.NetID, netlist.NetID) netlist.NetID) netlist.NetID {
	if len(bits) == 0 {
		panic("dp: reduce over empty bit list")
	}
	layer := append([]netlist.NetID(nil), bits...)
	for lvl := 0; len(layer) > 1; lvl++ {
		var next []netlist.NetID
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, op(fmt.Sprintf("%s_%d_%d", name, lvl, i/2), layer[i], layer[i+1]))
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	return layer[0]
}

func mustSameWidth(a, b Bus) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dp: bus width mismatch %d vs %d", len(a), len(b)))
	}
}

func log2(v int) int {
	k := 0
	for 1<<uint(k) < v {
		k++
	}
	return k
}
