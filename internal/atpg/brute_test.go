package atpg

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

// brute_test.go extends the gold consistency check to every fault model:
// on random 4-PI circuits, PODEM's verdict must match exhaustive
// enumeration — all 16 vectors for single-pattern models, all 256 ordered
// vector pairs for two-pattern models.

func randCircuit(rng *rand.Rand, gates int) *netlist.Circuit {
	names := []string{"NAND2X1", "NOR2X1", "XOR2X1", "INVX1", "AND2X2", "OAI21X1", "MUX2X1", "AOI22X1"}
	c := netlist.New("rand", lib)
	var nets []*netlist.Net
	for i := 0; i < 4; i++ {
		nets = append(nets, c.AddPI(string(rune('a'+i))))
	}
	for i := 0; i < gates; i++ {
		cell := lib.ByName(names[rng.Intn(len(names))])
		fanin := make([]*netlist.Net, cell.NumInputs())
		for j := range fanin {
			fanin[j] = nets[rng.Intn(len(nets))]
		}
		nets = append(nets, c.AddGate("", cell, fanin...))
	}
	c.MarkPO(nets[len(nets)-1])
	c.MarkPO(nets[len(nets)-2])
	return c
}

// allSingle returns all 16 single-pattern tests; allPairs all 256 ordered
// two-pattern tests.
func allSingle() []faultsim.Test {
	var out []faultsim.Test
	for p := uint(0); p < 16; p++ {
		out = append(out, faultsim.Test{Vec: []uint8{
			uint8(p & 1), uint8(p >> 1 & 1), uint8(p >> 2 & 1), uint8(p >> 3 & 1)}})
	}
	return out
}

func allPairs() []faultsim.Test {
	var out []faultsim.Test
	for p1 := uint(0); p1 < 16; p1++ {
		for p2 := uint(0); p2 < 16; p2++ {
			out = append(out, faultsim.Test{
				Init: []uint8{uint8(p1 & 1), uint8(p1 >> 1 & 1), uint8(p1 >> 2 & 1), uint8(p1 >> 3 & 1)},
				Vec:  []uint8{uint8(p2 & 1), uint8(p2 >> 1 & 1), uint8(p2 >> 2 & 1), uint8(p2 >> 3 & 1)},
			})
		}
	}
	return out
}

// bruteDetectable simulates the whole test list through faultsim.
func bruteDetectable(eng *faultsim.Engine, f *fault.Fault, tests []faultsim.Test) bool {
	for start := 0; start < len(tests); start += 64 {
		end := start + 64
		if end > len(tests) {
			end = len(tests)
		}
		if eng.Detects(f, eng.SimBlock(tests[start:end])) != 0 {
			return true
		}
	}
	return false
}

func crossCheck(t *testing.T, c *netlist.Circuit, f *fault.Fault, tests []faultsim.Test, what string) {
	t.Helper()
	eng := faultsim.New(c)
	brute := bruteDetectable(eng, f, tests)
	order := c.Levelize()
	levels := c.Levels()
	out, tv := NewGenerator(c, order, levels, 200000).Generate(f, rand.New(rand.NewSource(5)))
	switch out {
	case FoundTest:
		if !brute {
			t.Fatalf("%s: PODEM found a test for a brute-undetectable fault %v", what, f)
		}
		// The generated test itself must detect.
		b := eng.SimBlock([]faultsim.Test{{Init: tv.Init, Vec: tv.Vec}})
		if eng.Detects(f, b) == 0 {
			t.Fatalf("%s: generated test does not detect %v", what, f)
		}
	case ProvenImpossible:
		if brute {
			t.Fatalf("%s: PODEM claims undetectable, brute force detects %v", what, f)
		}
	case LimitExceeded:
		t.Fatalf("%s: limit exceeded on a 4-PI circuit for %v", what, f)
	}
}

func TestBruteTransition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := allPairs()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		for _, n := range c.Nets {
			for v := uint8(0); v <= 1; v++ {
				f := &fault.Fault{Model: fault.Transition, Net: n, Value: v}
				crossCheck(t, c, f, pairs, "transition")
			}
		}
	}
}

func TestBruteBridge(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	singles := allSingle()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		// Sample random net pairs.
		for k := 0; k < 12; k++ {
			a := c.Nets[rng.Intn(len(c.Nets))]
			b := c.Nets[rng.Intn(len(c.Nets))]
			if a == b {
				continue
			}
			// Skip feedback-creating bridges where the victim feeds
			// the aggressor's cone: the simulator's dominant model
			// handles it (aggressor uses good values), and PODEM does
			// the same, so the cross-check is still valid.
			f := &fault.Fault{Model: fault.Bridge, Net: a, Other: b}
			crossCheck(t, c, f, singles, "bridge")
		}
	}
}

func TestBruteCellAwareStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	singles := allSingle()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		for k := 0; k < 8; k++ {
			g := c.Gates[rng.Intn(len(c.Gates))]
			n := uint(1) << uint(g.Type.NumInputs())
			mask := uint64(rng.Intn(int(uint64(1)<<n-1)) + 1)
			beh := &switchsim.Behavior{Inputs: g.Type.NumInputs(), StaticMask: mask}
			f := &fault.Fault{Model: fault.CellAware, Internal: true, Gate: g, Behavior: beh}
			crossCheck(t, c, f, singles, "cell-aware-static")
		}
	}
}

func TestBruteCellAwareDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pairs := allPairs()
	for trial := 0; trial < 6; trial++ {
		c := randCircuit(rng, 7)
		for k := 0; k < 5; k++ {
			g := c.Gates[rng.Intn(len(c.Gates))]
			ni := g.Type.NumInputs()
			n := uint(1) << uint(ni)
			pm := make([]uint64, n)
			// A few random (init, final) activating pairs.
			for j := 0; j < 3; j++ {
				pm[rng.Intn(int(n))] |= 1 << uint(rng.Intn(int(n)))
			}
			beh := &switchsim.Behavior{Inputs: ni, PairMask: pm}
			f := &fault.Fault{Model: fault.CellAware, Internal: true, Gate: g, Behavior: beh}
			crossCheck(t, c, f, pairs, "cell-aware-dynamic")
		}
	}
}

func TestBruteBranchStuckAt(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	singles := allSingle()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		for k := 0; k < 10; k++ {
			g := c.Gates[rng.Intn(len(c.Gates))]
			pin := rng.Intn(len(g.Fanin))
			f := &fault.Fault{Model: fault.StuckAt, Net: g.Fanin[pin], Value: uint8(rng.Intn(2)),
				BranchGate: g, BranchPin: pin}
			crossCheck(t, c, f, singles, "branch-stuck-at")
		}
	}
}
