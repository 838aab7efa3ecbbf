package dp

import (
	"math/rand"
	"testing"

	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// setBus drives a bus with the bits of val.
func setBus(s *sim.Simulator, b Bus, val uint64) {
	for i, net := range b {
		s.SetInputV(net, logic.FromBit(val>>uint(i)))
	}
}

// busVal reads a bus as an unsigned integer; fails the test on X bits.
func busVal(t *testing.T, s *sim.Simulator, b Bus) uint64 {
	t.Helper()
	var v uint64
	for i, net := range b {
		switch s.NetVal(net).Get(0) {
		case logic.One:
			v |= 1 << uint(i)
		case logic.Zero:
		default:
			t.Fatalf("bus bit %d is X", i)
		}
	}
	return v
}

func newSim(t *testing.T, n *netlist.Netlist) *sim.Simulator {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s, err := sim.New(n)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s
}

func TestRippleAdder(t *testing.T) {
	n := netlist.New("add")
	a := InputBus(n, "a", 16)
	b := InputBus(n, "b", 16)
	cin := n.Input("cin")
	sum, cout := RippleAdder(n, "add", a, b, cin)
	OutputBus(n, "sum", sum)
	n.OutputPort("cout", cout)
	s := newSim(t, n)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		av, bv := rng.Uint64()&0xFFFF, rng.Uint64()&0xFFFF
		ci := rng.Uint64() & 1
		setBus(s, a, av)
		setBus(s, b, bv)
		s.SetInputV(cin, logic.FromBit(ci))
		s.EvalComb()
		want := av + bv + ci
		if got := busVal(t, s, sum); got != want&0xFFFF {
			t.Fatalf("%d+%d+%d: sum=%d want %d", av, bv, ci, got, want&0xFFFF)
		}
		wantC := logic.FromBit(want >> 16)
		if got := s.NetVal(cout).Get(0); got != wantC {
			t.Fatalf("%d+%d+%d: cout=%s want %s", av, bv, ci, got, wantC)
		}
	}
}

func TestSubtractor(t *testing.T) {
	n := netlist.New("sub")
	a := InputBus(n, "a", 12)
	b := InputBus(n, "b", 12)
	diff, geq := Subtractor(n, "sub", a, b)
	OutputBus(n, "d", diff)
	n.OutputPort("geq", geq)
	s := newSim(t, n)

	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		av, bv := rng.Uint64()&0xFFF, rng.Uint64()&0xFFF
		setBus(s, a, av)
		setBus(s, b, bv)
		s.EvalComb()
		if got := busVal(t, s, diff); got != (av-bv)&0xFFF {
			t.Fatalf("%d-%d = %d, want %d", av, bv, got, (av-bv)&0xFFF)
		}
		if got := s.NetVal(geq).Get(0); got != logic.FromBool(av >= bv) {
			t.Fatalf("%d>=%d flag wrong", av, bv)
		}
	}
}

func TestBitwiseOps(t *testing.T) {
	n := netlist.New("bw")
	a := InputBus(n, "a", 8)
	b := InputBus(n, "b", 8)
	OutputBus(n, "and", AndBus(n, "and_g", a, b))
	OutputBus(n, "xor", XorBus(n, "xor_g", a, b))
	OutputBus(n, "not", NotBus(n, "not_g", a))
	andB, _ := n.NetByName("and_g[0]")
	_ = andB
	s := newSim(t, n)
	rng := rand.New(rand.NewSource(3))
	get := func(prefix string) Bus {
		bus := make(Bus, 8)
		for i := range bus {
			id, ok := n.NetByName(nameOf(prefix, i))
			if !ok {
				t.Fatalf("missing net %s", nameOf(prefix, i))
			}
			bus[i] = id
		}
		return bus
	}
	andO, xorO, notO := get("and_g"), get("xor_g"), get("not_g")
	for trial := 0; trial < 50; trial++ {
		av, bv := rng.Uint64()&0xFF, rng.Uint64()&0xFF
		setBus(s, a, av)
		setBus(s, b, bv)
		s.EvalComb()
		if busVal(t, s, andO) != av&bv || busVal(t, s, xorO) != av^bv ||
			busVal(t, s, notO) != ^av&0xFF {
			t.Fatalf("bitwise mismatch at a=%x b=%x", av, bv)
		}
	}
}

func nameOf(prefix string, i int) string {
	return prefix + "[" + string(rune('0'+i)) + "]"
}

func TestMuxTreeAndDecoder(t *testing.T) {
	n := netlist.New("mt")
	words := make([]Bus, 8)
	for w := range words {
		words[w] = InputBus(n, nameOf("w", w), 8)
	}
	sel := InputBus(n, "sel", 3)
	out := MuxTree(n, "mt", words, sel)
	OutputBus(n, "o", out)
	s := newSim(t, n)
	for w, word := range words {
		setBus(s, word, uint64(w*37+5))
	}
	for v := uint64(0); v < 8; v++ {
		setBus(s, sel, v)
		s.EvalComb()
		if got := busVal(t, s, out); got != (v*37+5)&0xFF {
			t.Fatalf("mux sel=%d got %d", v, got)
		}
	}
}

func TestEqBusAndReduce(t *testing.T) {
	n := netlist.New("eq")
	a := InputBus(n, "a", 7)
	b := InputBus(n, "b", 7)
	eq := EqBus(n, "eq", a, b)
	ro := ReduceOr(n, "ro", a)
	n.OutputPort("eqo", eq)
	n.OutputPort("roo", ro)
	s := newSim(t, n)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		av := rng.Uint64() & 0x7F
		bv := av
		if trial%2 == 0 {
			bv = rng.Uint64() & 0x7F
		}
		setBus(s, a, av)
		setBus(s, b, bv)
		s.EvalComb()
		if got := s.NetVal(eq).Get(0); got != logic.FromBool(av == bv) {
			t.Fatalf("eq(%x,%x) = %s", av, bv, got)
		}
		if got := s.NetVal(ro).Get(0); got != logic.FromBool(av != 0) {
			t.Fatalf("reduceOr(%x) = %s", av, got)
		}
	}
}

func TestBarrelShifter(t *testing.T) {
	n := netlist.New("sh")
	a := InputBus(n, "a", 16)
	amt := InputBus(n, "amt", 4)
	sll := BarrelShifter(n, "sll", a, amt, ShiftLeft)
	srl := BarrelShifter(n, "srl", a, amt, ShiftRightLogical)
	sra := BarrelShifter(n, "sra", a, amt, ShiftRightArith)
	OutputBus(n, "sllo", sll)
	OutputBus(n, "srlo", srl)
	OutputBus(n, "srao", sra)
	s := newSim(t, n)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		av := rng.Uint64() & 0xFFFF
		k := uint(rng.Intn(16))
		setBus(s, a, av)
		setBus(s, amt, uint64(k))
		s.EvalComb()
		if got := busVal(t, s, sll); got != (av<<k)&0xFFFF {
			t.Fatalf("sll %x<<%d = %x", av, k, got)
		}
		if got := busVal(t, s, srl); got != av>>k {
			t.Fatalf("srl %x>>%d = %x", av, k, got)
		}
		signed := int16(av)
		if got := busVal(t, s, sra); got != uint64(uint16(signed>>k)) {
			t.Fatalf("sra %x>>%d = %x want %x", av, k, got, uint16(signed>>k))
		}
	}
}

func TestArrayMultiplier(t *testing.T) {
	n := netlist.New("mul")
	a := InputBus(n, "a", 12)
	b := InputBus(n, "b", 12)
	p := ArrayMultiplier(n, "mul", a, b)
	OutputBus(n, "p", p)
	s := newSim(t, n)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		av, bv := rng.Uint64()&0xFFF, rng.Uint64()&0xFFF
		setBus(s, a, av)
		setBus(s, b, bv)
		s.EvalComb()
		if got := busVal(t, s, p); got != (av*bv)&0xFFF {
			t.Fatalf("%d*%d = %d, want %d", av, bv, got, (av*bv)&0xFFF)
		}
	}
}

func TestRegisterEnAndRegFile(t *testing.T) {
	n := netlist.New("re")
	d := InputBus(n, "d", 8)
	en := n.Input("en")
	rstn := n.Input("rstn")
	q := RegisterEn(n, "r", d, en, rstn)
	OutputBus(n, "q", q)
	s := newSim(t, n)

	// Reset.
	s.SetInputV(rstn, logic.Zero)
	s.SetInputV(en, logic.Zero)
	setBus(s, d, 0)
	s.Step()
	s.SetInputV(rstn, logic.One)

	var model uint64
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		v := rng.Uint64() & 0xFF
		we := rng.Intn(3) > 0
		setBus(s, d, v)
		s.SetInputV(en, logic.FromBool(we))
		s.EvalComb()
		if got := busVal(t, s, q); got != model {
			t.Fatalf("trial %d: q = %d, want %d", trial, got, model)
		}
		s.CommitState()
		if we {
			model = v
		}
	}
}
