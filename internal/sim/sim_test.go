package sim

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/library"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

var lib = library.OSU018Like()

// buildMux builds y = s ? b : a out of basic gates:
// y = NAND2(NAND2(a, INV(s)), NAND2(b, s))
func buildMux(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("mux", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	s := c.AddPI("s")
	sn := c.AddGate("u0", lib.ByName("INVX1"), s)
	t1 := c.AddGate("u1", lib.ByName("NAND2X1"), a, sn)
	t2 := c.AddGate("u2", lib.ByName("NAND2X1"), b, s)
	y := c.AddGate("u3", lib.ByName("NAND2X1"), t1, t2)
	c.MarkPO(y)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunSingleMux(t *testing.T) {
	c := buildMux(t)
	s := New(c)
	y := c.NetByName("u3_o")
	for a := uint8(0); a <= 1; a++ {
		for b := uint8(0); b <= 1; b++ {
			for sel := uint8(0); sel <= 1; sel++ {
				vals := s.RunSingle([]uint8{a, b, sel})
				want := a
				if sel == 1 {
					want = b
				}
				if vals[y.ID] != want {
					t.Errorf("mux(%d,%d,s=%d) = %d, want %d", a, b, sel, vals[y.ID], want)
				}
			}
		}
	}
}

// TestParallelMatchesSingle: 64-pattern simulation must agree with 64
// single-pattern simulations.
func TestParallelMatchesSingle(t *testing.T) {
	c := buildMux(t)
	s := New(c)
	rng := rand.New(rand.NewSource(42))
	words := RandomWords(rng, len(c.PIs))
	vals := s.Run(words)
	for p := uint(0); p < 64; p++ {
		pi := make([]uint8, len(c.PIs))
		for i := range pi {
			pi[i] = uint8(words[i] >> p & 1)
		}
		single := s.RunSingle(pi)
		for _, n := range c.Nets {
			if uint8(vals[n.ID]>>p&1) != single[n.ID] {
				t.Fatalf("pattern %d net %s: parallel %d, single %d",
					p, n.Name, vals[n.ID]>>p&1, single[n.ID])
			}
		}
	}
}

func TestPatternsToWords(t *testing.T) {
	pats := [][]uint8{{1, 0, 1}, {0, 1, 1}}
	w := PatternsToWords(pats, 3)
	if w[0] != 0b01 || w[1] != 0b10 || w[2] != 0b11 {
		t.Errorf("words = %b %b %b", w[0], w[1], w[2])
	}
}

func TestRunIntoReuse(t *testing.T) {
	c := buildMux(t)
	s := New(c)
	vals := make([]logic.Word, len(c.Nets))
	for i, n := range c.PIs {
		_ = i
		vals[n.ID] = logic.AllOnes
	}
	s.RunInto(vals)
	// All inputs 1: y = b = 1.
	y := c.NetByName("u3_o")
	if vals[y.ID] != logic.AllOnes {
		t.Errorf("y = %x, want all ones", vals[y.ID])
	}
}

func TestRunPanicsOnWrongPICount(t *testing.T) {
	c := buildMux(t)
	s := New(c)
	defer func() {
		if recover() == nil {
			t.Error("Run must panic on PI count mismatch")
		}
	}()
	s.Run(make([]logic.Word, 1))
}
