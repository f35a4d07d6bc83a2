package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestV5Not(t *testing.T) {
	cases := map[V5]V5{X: X, Zero: One, One: Zero, D: DBar, DBar: D}
	for v, want := range cases {
		if got := v.Not(); got != want {
			t.Errorf("Not(%v) = %v, want %v", v, got, want)
		}
		if got := v.Not().Not(); got != v {
			t.Errorf("double Not(%v) = %v", v, got)
		}
	}
}

func TestV5Projections(t *testing.T) {
	type proj struct {
		g, f   uint8
		gk, fk bool
	}
	cases := map[V5]proj{
		Zero: {0, 0, true, true},
		One:  {1, 1, true, true},
		D:    {1, 0, true, true},
		DBar: {0, 1, true, true},
		X:    {0, 0, false, false},
	}
	for v, want := range cases {
		g, gk := v.Good()
		f, fk := v.Faulty()
		if gk != want.gk || fk != want.fk || (gk && g != want.g) || (fk && f != want.f) {
			t.Errorf("%v projections: good=(%d,%v) faulty=(%d,%v)", v, g, gk, f, fk)
		}
	}
}

func TestFromBitsRoundTrip(t *testing.T) {
	for g := uint8(0); g <= 1; g++ {
		for f := uint8(0); f <= 1; f++ {
			v := FromBits(g, f)
			gg, _ := v.Good()
			ff, _ := v.Faulty()
			if gg != g || ff != f {
				t.Errorf("FromBits(%d,%d) = %v: round-trip (%d,%d)", g, f, v, gg, ff)
			}
		}
	}
}

func TestIsError(t *testing.T) {
	if !D.IsError() || !DBar.IsError() {
		t.Error("D/DBar must be errors")
	}
	if Zero.IsError() || One.IsError() || X.IsError() {
		t.Error("0/1/X must not be errors")
	}
}

func ttAND(n int) TT {
	return NewTT(n, func(a uint) uint8 {
		if a == 1<<uint(n)-1 {
			return 1
		}
		return 0
	})
}

func ttXOR(n int) TT {
	return NewTT(n, func(a uint) uint8 {
		var p uint8
		for i := 0; i < n; i++ {
			p ^= uint8(a >> uint(i) & 1)
		}
		return p
	})
}

func TestTTEval(t *testing.T) {
	and3 := ttAND(3)
	for a := uint(0); a < 8; a++ {
		want := uint8(0)
		if a == 7 {
			want = 1
		}
		if got := and3.Eval(a); got != want {
			t.Errorf("AND3(%03b) = %d, want %d", a, got, want)
		}
	}
	if and3.Minterms() != 1 {
		t.Errorf("AND3 minterms = %d", and3.Minterms())
	}
	xor2 := ttXOR(2)
	if xor2.Minterms() != 2 {
		t.Errorf("XOR2 minterms = %d", xor2.Minterms())
	}
}

func TestTTIsConst(t *testing.T) {
	zero := NewTT(2, func(uint) uint8 { return 0 })
	one := NewTT(2, func(uint) uint8 { return 1 })
	if v, ok := zero.IsConst(); !ok || v != 0 {
		t.Errorf("const-0 detection: %d %v", v, ok)
	}
	if v, ok := one.IsConst(); !ok || v != 1 {
		t.Errorf("const-1 detection: %d %v", v, ok)
	}
	if _, ok := ttXOR(2).IsConst(); ok {
		t.Error("XOR2 reported constant")
	}
}

func TestTTDependsOn(t *testing.T) {
	// f(a,b,c) = a XOR b ignores c.
	f := NewTT(3, func(a uint) uint8 { return uint8((a ^ a>>1) & 1) })
	if !f.DependsOn(0) || !f.DependsOn(1) {
		t.Error("must depend on inputs 0 and 1")
	}
	if f.DependsOn(2) {
		t.Error("must not depend on input 2")
	}
}

// TestTTEvalWordMatchesScalar is a property test: parallel-pattern
// evaluation must agree with per-pattern scalar evaluation.
func TestTTEvalWordMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(bitsVal uint64, n8 uint8) bool {
		n := int(n8%6) + 1
		tt := TT{Inputs: n, Bits: bitsVal}
		in := make([]Word, n)
		for i := range in {
			in[i] = rng.Uint64()
		}
		out := tt.EvalWord(in)
		for p := uint(0); p < 64; p++ {
			var a uint
			for i := 0; i < n; i++ {
				a |= uint(in[i]>>p&1) << uint(i)
			}
			if uint8(out>>p&1) != tt.Eval(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTTEvalV5NoX(t *testing.T) {
	tt := ttXOR(2)
	cases := []struct {
		in   []V5
		want V5
	}{
		{[]V5{Zero, Zero}, Zero},
		{[]V5{One, Zero}, One},
		{[]V5{D, Zero}, D},
		{[]V5{D, One}, DBar},
		{[]V5{D, D}, Zero},   // error cancels on XOR
		{[]V5{D, DBar}, One}, // opposite errors
		{[]V5{X, Zero}, X},
		{[]V5{X, D}, X},
	}
	for _, c := range cases {
		if got := tt.EvalV5(c.in); got != c.want {
			t.Errorf("XOR2(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTTEvalV5ControllingValue(t *testing.T) {
	and2 := ttAND(2)
	// A controlling 0 forces the output regardless of X on the other input.
	if got := and2.EvalV5([]V5{Zero, X}); got != Zero {
		t.Errorf("AND2(0,X) = %v, want 0", got)
	}
	if got := and2.EvalV5([]V5{One, X}); got != X {
		t.Errorf("AND2(1,X) = %v, want X", got)
	}
	// D AND 0 = 0 (controlling value masks the error).
	if got := and2.EvalV5([]V5{D, Zero}); got != Zero {
		t.Errorf("AND2(D,0) = %v, want 0", got)
	}
	if got := and2.EvalV5([]V5{D, One}); got != D {
		t.Errorf("AND2(D,1) = %v, want D", got)
	}
}

// TestTTEvalV5AgainstProjections is a property test: for random tables and
// random X-free five-valued inputs, EvalV5 must equal the value built from
// evaluating good and faulty projections separately.
func TestTTEvalV5AgainstProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []V5{Zero, One, D, DBar}
	f := func(bitsVal uint64, n8 uint8, pick uint64) bool {
		n := int(n8%4) + 1
		tt := TT{Inputs: n, Bits: bitsVal}
		in := make([]V5, n)
		var ga, fa uint
		for i := range in {
			in[i] = vals[pick>>(2*uint(i))&3]
			g, _ := in[i].Good()
			fv, _ := in[i].Faulty()
			ga |= uint(g) << uint(i)
			fa |= uint(fv) << uint(i)
		}
		want := FromBits(tt.Eval(ga), tt.Eval(fa))
		return tt.EvalV5(in) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}
