package bench

import (
	"testing"

	"dfmresyn/internal/library"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/sim"
)

var lib = library.OSU018Like()

func TestAllCircuitsBuildAndCheck(t *testing.T) {
	for _, name := range Names {
		c, err := Build(name, lib)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Check(); err != nil {
			t.Errorf("%s: structural check: %v", name, err)
		}
		st := c.Stats()
		if st.Gates < 50 {
			t.Errorf("%s: only %d gates — too small to be a meaningful block", name, st.Gates)
		}
		if st.POs == 0 || st.PIs == 0 {
			t.Errorf("%s: missing PIs or POs", name)
		}
	}
}

func TestUnknownCircuit(t *testing.T) {
	if _, err := Build("nosuch", lib); err == nil {
		t.Fatal("unknown circuit must error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild must panic on unknown circuit")
		}
	}()
	MustBuild("nosuch", lib)
}

func TestDeterministicGeneration(t *testing.T) {
	for _, name := range Names {
		a := MustBuild(name, lib)
		b := MustBuild(name, lib)
		if len(a.Gates) != len(b.Gates) || len(a.Nets) != len(b.Nets) {
			t.Fatalf("%s: generation not deterministic", name)
		}
		for i := range a.Gates {
			if a.Gates[i].Name != b.Gates[i].Name || a.Gates[i].Type != b.Gates[i].Type {
				t.Fatalf("%s: gate %d differs between builds", name, i)
			}
		}
	}
}

func TestTableINamesSubset(t *testing.T) {
	set := map[string]bool{}
	for _, n := range Names {
		set[n] = true
	}
	for _, n := range TableINames {
		if !set[n] {
			t.Errorf("Table I circuit %s not in Names", n)
		}
	}
	if len(TableINames) != 4 {
		t.Errorf("Table I has %d circuits, want 4", len(TableINames))
	}
	if len(Names) != 12 {
		t.Errorf("Table II has %d circuits, want 12", len(Names))
	}
}

// TestTV80ALUFunction: the tv80 result bus must compute a+d / a-d / a&d /
// a^d by op code — the generator produces real logic, not noise.
func TestTV80ALUFunction(t *testing.T) {
	c := MustBuild("tv80", lib)
	s := sim.New(c)
	// PI order: a0..a7, d0..d7, op0, op1, ci.
	run := func(a, d uint8, op uint8, ci uint8) uint8 {
		pi := make([]uint8, len(c.PIs))
		for i := 0; i < 8; i++ {
			pi[i] = a >> uint(i) & 1
			pi[8+i] = d >> uint(i) & 1
		}
		pi[16] = op & 1
		pi[17] = op >> 1 & 1
		pi[18] = ci
		vals := s.RunSingle(pi)
		var res uint8
		for i := 0; i < 8; i++ {
			res |= vals[c.POs[i].ID] << uint(i)
		}
		return res
	}
	cases := []struct {
		a, d   uint8
		op, ci uint8
		want   uint8
	}{
		{10, 5, 0, 0, 15},        // add
		{10, 5, 1, 0, 10 - 5},    // sub
		{0xF0, 0x3C, 2, 0, 0x30}, // and
		{0xF0, 0x3C, 3, 0, 0xCC}, // xor
		{200, 100, 0, 1, 45},     // add with carry (wraps)
	}
	for _, tc := range cases {
		if got := run(tc.a, tc.d, tc.op, tc.ci); got != tc.want {
			t.Errorf("tv80 alu(a=%d,d=%d,op=%d,ci=%d) = %d, want %d",
				tc.a, tc.d, tc.op, tc.ci, got, tc.want)
		}
	}
}

// TestSBox4Function: the S-box builder must reproduce its table.
func TestSBox4Function(t *testing.T) {
	b := NewB("sbox", lib)
	in := b.PIs("x", 4)
	out := b.SBox4(presentSBox, in)
	b.PO(out...)
	s := sim.New(b.C)
	for v := uint8(0); v < 16; v++ {
		pi := []uint8{v & 1, v >> 1 & 1, v >> 2 & 1, v >> 3 & 1}
		vals := s.RunSingle(pi)
		var got uint8
		for i := 0; i < 4; i++ {
			got |= vals[out[i].ID] << uint(i)
		}
		if got != presentSBox[v] {
			t.Errorf("sbox(%x) = %x, want %x", v, got, presentSBox[v])
		}
	}
}

// TestAdderAndMul: builder arithmetic must be correct.
func TestAdderAndMul(t *testing.T) {
	b := NewB("arith", lib)
	x := b.PIs("x", 4)
	y := b.PIs("y", 4)
	sum, co := b.Adder(x, y, nil)
	prod := b.Mul(x, y)
	b.PO(sum...)
	b.PO(co)
	b.PO(prod...)
	s := sim.New(b.C)
	for xv := uint(0); xv < 16; xv++ {
		for yv := uint(0); yv < 16; yv++ {
			pi := make([]uint8, 8)
			for i := 0; i < 4; i++ {
				pi[i] = uint8(xv >> uint(i) & 1)
				pi[4+i] = uint8(yv >> uint(i) & 1)
			}
			vals := s.RunSingle(pi)
			var gotSum uint
			for i := 0; i < 4; i++ {
				gotSum |= uint(vals[sum[i].ID]) << uint(i)
			}
			gotSum |= uint(vals[co.ID]) << 4
			if gotSum != xv+yv {
				t.Fatalf("adder(%d+%d) = %d", xv, yv, gotSum)
			}
			var gotProd uint
			for i := range prod {
				gotProd |= uint(vals[prod[i].ID]) << uint(i)
			}
			if gotProd != xv*yv {
				t.Fatalf("mul(%d*%d) = %d", xv, yv, gotProd)
			}
		}
	}
}

// TestRotate: the barrel rotator must rotate left by the shift amount.
func TestRotate(t *testing.T) {
	b := NewB("rot", lib)
	x := b.PIs("x", 8)
	sh := b.PIs("s", 3)
	out := b.Rotate(x, sh)
	b.PO(out...)
	s := sim.New(b.C)
	for val := uint(0); val < 256; val += 37 {
		for amt := uint(0); amt < 8; amt++ {
			pi := make([]uint8, 11)
			for i := 0; i < 8; i++ {
				pi[i] = uint8(val >> uint(i) & 1)
			}
			for i := 0; i < 3; i++ {
				pi[8+i] = uint8(amt >> uint(i) & 1)
			}
			vals := s.RunSingle(pi)
			var got uint
			for i := 0; i < 8; i++ {
				got |= uint(vals[out[i].ID]) << uint(i)
			}
			want := (val>>amt | val<<(8-amt)) & 0xFF
			if got != want {
				t.Fatalf("rotate(%02x by %d) = %02x, want %02x", val, amt, got, want)
			}
		}
	}
}

// TestInjectConsensusIsRedundant: the consensus term's function must equal
// the two-term cover (the injected gate is logically redundant).
func TestInjectConsensusIsRedundant(t *testing.T) {
	b := NewB("cons", lib)
	x := b.PI("x")
	y := b.PI("y")
	z := b.PI("z")
	out := b.InjectConsensus(x, y, z)
	b.PO(out)
	s := sim.New(b.C)
	for a := uint(0); a < 8; a++ {
		vals := s.RunSingle([]uint8{uint8(a & 1), uint8(a >> 1 & 1), uint8(a >> 2 & 1)})
		xv, yv, zv := a&1, a>>1&1, a>>2&1
		want := uint8(xv&yv | (1-xv)&zv)
		if vals[out.ID] != want {
			t.Errorf("consensus(%03b) = %d, want %d", a, vals[out.ID], want)
		}
	}
}

// TestDupMergeIdentity: DupMerge(x, y) must equal x AND y.
func TestDupMergeIdentity(t *testing.T) {
	b := NewB("dup", lib)
	x := b.PI("x")
	y := b.PI("y")
	out := b.DupMerge(x, y)
	b.PO(out)
	s := sim.New(b.C)
	for a := uint(0); a < 4; a++ {
		vals := s.RunSingle([]uint8{uint8(a & 1), uint8(a >> 1 & 1)})
		want := uint8(a&1) & uint8(a>>1&1)
		if vals[out.ID] != want {
			t.Errorf("dupmerge(%02b) = %d, want %d", a, vals[out.ID], want)
		}
	}
}

// TestFromTTBuilder: the gate-level Shannon builder must realize arbitrary
// 4-input functions.
func TestFromTTBuilder(t *testing.T) {
	for _, bits := range []uint64{0x8000, 0x1234, 0xFFFE, 0x6996} {
		b := NewB("tt", lib)
		in := b.PIs("x", 4)
		tt := logic.TT{Inputs: 4, Bits: bits}
		out := b.FromTT(tt, in)
		b.PO(out)
		s := sim.New(b.C)
		for a := uint(0); a < 16; a++ {
			pi := []uint8{uint8(a & 1), uint8(a >> 1 & 1), uint8(a >> 2 & 1), uint8(a >> 3 & 1)}
			vals := s.RunSingle(pi)
			if vals[out.ID] != tt.Eval(a) {
				t.Fatalf("tt %x at %x: got %d want %d", bits, a, vals[out.ID], tt.Eval(a))
			}
		}
	}
}

func TestScaleCircuits(t *testing.T) {
	want := map[string]struct{ lo, hi int }{
		"synth1k":  {900, 1500},
		"synth10k": {9000, 11000},
	}
	for _, name := range ScaleNames {
		c := MustBuild(name, lib)
		if err := c.Check(); err != nil {
			t.Errorf("%s: structural check: %v", name, err)
		}
		st := c.Stats()
		w := want[name]
		if st.Gates < w.lo || st.Gates > w.hi {
			t.Errorf("%s: %d gates, want %d..%d", name, st.Gates, w.lo, w.hi)
		}
		t.Logf("%s: %d gates, %d PIs, %d POs", name, st.Gates, st.PIs, st.POs)
	}
}
