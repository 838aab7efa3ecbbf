package logic

import (
	"testing"
	"testing/quick"
)

var allV = []V{Zero, One, X}

func TestNotTable(t *testing.T) {
	cases := map[V]V{Zero: One, One: Zero, X: X}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("Not(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestAndTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: Zero, {Zero, X}: Zero,
		{One, Zero}: Zero, {One, One}: One, {One, X}: X,
		{X, Zero}: Zero, {X, One}: X, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].And(in[1]); got != w {
			t.Errorf("%s AND %s = %s, want %s", in[0], in[1], got, w)
		}
	}
}

func TestOrTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: One, {Zero, X}: X,
		{One, Zero}: One, {One, One}: One, {One, X}: One,
		{X, Zero}: X, {X, One}: One, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].Or(in[1]); got != w {
			t.Errorf("%s OR %s = %s, want %s", in[0], in[1], got, w)
		}
	}
}

func TestXorTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: One, {Zero, X}: X,
		{One, Zero}: One, {One, One}: Zero, {One, X}: X,
		{X, Zero}: X, {X, One}: X, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].Xor(in[1]); got != w {
			t.Errorf("%s XOR %s = %s, want %s", in[0], in[1], got, w)
		}
	}
}

func TestMux(t *testing.T) {
	for _, d0 := range allV {
		for _, d1 := range allV {
			if got := Mux(Zero, d0, d1); got != d0 {
				t.Errorf("Mux(0,%s,%s) = %s, want %s", d0, d1, got, d0)
			}
			if got := Mux(One, d0, d1); got != d1 {
				t.Errorf("Mux(1,%s,%s) = %s, want %s", d0, d1, got, d1)
			}
			got := Mux(X, d0, d1)
			if d0 == d1 && d0.IsKnown() {
				if got != d0 {
					t.Errorf("Mux(X,%s,%s) = %s, want %s", d0, d1, got, d0)
				}
			} else if got != X {
				t.Errorf("Mux(X,%s,%s) = %s, want X", d0, d1, got)
			}
		}
	}
}

func TestDeMorganTernary(t *testing.T) {
	for _, a := range allV {
		for _, b := range allV {
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan violated for %s,%s", a, b)
			}
		}
	}
}

func TestParseVRoundTrip(t *testing.T) {
	for _, v := range allV {
		got, err := ParseV(v.String())
		if err != nil || got != v {
			t.Errorf("ParseV(%q) = %s, %v", v.String(), got, err)
		}
	}
	if _, err := ParseV("2"); err == nil {
		t.Error("ParseV(\"2\") should fail")
	}
}

func TestFromBoolAndBit(t *testing.T) {
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Error("FromBool wrong")
	}
	if FromBit(3) != One || FromBit(2) != Zero {
		t.Error("FromBit wrong")
	}
}

func TestD5Canonical(t *testing.T) {
	if !D.IsError() || !DBar.IsError() {
		t.Error("D and D' must carry a fault effect")
	}
	for _, d := range []D5{Zero5, One5, X5} {
		if d.IsError() {
			t.Errorf("%s should not be an error value", d)
		}
	}
	if D.Not() != DBar || DBar.Not() != D {
		t.Error("Not must exchange D and D'")
	}
}

func TestD5ComponentwiseAgainstTernary(t *testing.T) {
	var all []D5
	for _, g := range allV {
		for _, f := range allV {
			all = append(all, D5{g, f})
		}
	}
	for _, a := range all {
		for _, b := range all {
			if got := a.And(b); got.Good != a.Good.And(b.Good) || got.Faulty != a.Faulty.And(b.Faulty) {
				t.Fatalf("D5 And not componentwise at %v,%v", a, b)
			}
			if got := a.Or(b); got.Good != a.Good.Or(b.Good) || got.Faulty != a.Faulty.Or(b.Faulty) {
				t.Fatalf("D5 Or not componentwise at %v,%v", a, b)
			}
			if got := a.Xor(b); got.Good != a.Good.Xor(b.Good) || got.Faulty != a.Faulty.Xor(b.Faulty) {
				t.Fatalf("D5 Xor not componentwise at %v,%v", a, b)
			}
		}
	}
}

func TestD5String(t *testing.T) {
	want := map[string]D5{"0": Zero5, "1": One5, "X": X5, "D": D, "D'": DBar}
	for s, d := range want {
		if d.String() != s {
			t.Errorf("String(%v) = %q, want %q", d, d.String(), s)
		}
	}
}

// randomPV builds a valid PV from two arbitrary words by resolving conflicts
// in favour of rail 1.
func randomPV(a, b uint64) PV { return PV{L0: a &^ b, L1: b} }

func TestPVMatchesScalarOps(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		p, q := randomPV(a0, a1), randomPV(b0, b1)
		and, or, xor, not := p.And(q), p.Or(q), p.Xor(q), p.Not()
		mux := PVMux(p, q, q.Not())
		for i := 0; i < WordBits; i += 3 { // sample slots
			pa, qa := p.Get(i), q.Get(i)
			if and.Get(i) != pa.And(qa) || or.Get(i) != pa.Or(qa) ||
				xor.Get(i) != pa.Xor(qa) || not.Get(i) != pa.Not() {
				return false
			}
			if mux.Get(i) != Mux(pa, qa, qa.Not()) {
				return false
			}
		}
		return and.Valid() && or.Valid() && xor.Valid() && not.Valid() && mux.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPVSetGet(t *testing.T) {
	p := PVAllX
	for i, v := range []V{Zero, One, X, One, Zero} {
		p = p.Set(i*7, v)
	}
	for i, v := range []V{Zero, One, X, One, Zero} {
		if got := p.Get(i * 7); got != v {
			t.Errorf("slot %d = %s, want %s", i*7, got, v)
		}
	}
	if !p.Valid() {
		t.Error("Set produced an invalid PV")
	}
}

func TestPVDiff(t *testing.T) {
	a := PVFromBits(0b1010)
	b := PVFromBits(0b0110)
	if got := a.Diff(b); got != 0b1100 {
		t.Errorf("Diff = %b, want 1100", got)
	}
	// X slots never differ.
	c := PVAllX.Set(0, One)
	d := PVAllX.Set(0, Zero)
	if got := c.Diff(d); got != 1 {
		t.Errorf("Diff with X = %b, want 1", got)
	}
}

func TestPVSplatAndSelect(t *testing.T) {
	for _, v := range allV {
		p := PVSplat(v)
		for i := 0; i < WordBits; i += 13 {
			if p.Get(i) != v {
				t.Errorf("PVSplat(%s).Get(%d) = %s", v, i, p.Get(i))
			}
		}
	}
	for i := 0; i < 256; i++ {
		if v := V(i); v != Zero && v != One && PVSplat(v) != PVAllX {
			t.Errorf("PVSplat(%d) = %+v, want X in every slot", i, PVSplat(v))
		}
	}
	s := Select(0x00FF, PVAllOne, PVAllZero)
	if s.Get(0) != One || s.Get(8) != Zero {
		t.Error("Select mask handling wrong")
	}
}

func TestPVKnownAndOnes(t *testing.T) {
	p := PVFromBits(0xF0)
	if p.KnownMask() != ^uint64(0) {
		t.Error("PVFromBits must be fully known")
	}
	if p.OnesCount() != 4 {
		t.Errorf("OnesCount = %d, want 4", p.OnesCount())
	}
	if !PVAllX.Eq(PV{}) {
		t.Error("PVAllX should equal zero value")
	}
}
