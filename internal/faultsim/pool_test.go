package faultsim

import (
	"math/rand"
	"slices"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// poolCircuit builds a few levels with reconvergent fanout so that stem,
// branch and bridge faults behave differently.
func poolCircuit() *netlist.Circuit {
	c := netlist.New("pool", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	ci := c.AddPI("ci")
	d := c.AddPI("d")
	n1 := c.AddGate("n1", lib.ByName("NAND2X1"), a, b)
	n2 := c.AddGate("n2", lib.ByName("NOR2X1"), ci, d)
	x1 := c.AddGate("x1", lib.ByName("XOR2X1"), n1, n2)
	i1 := c.AddGate("i1", lib.ByName("INVX1"), n1)
	o1 := c.AddGate("o1", lib.ByName("OAI21X1"), x1, i1, d)
	c.MarkPO(o1)
	c.MarkPO(x1)
	return c
}

// poolFaults builds a deterministic mixed fault list over the circuit.
func poolFaults(c *netlist.Circuit) *fault.List {
	l := &fault.List{}
	for _, n := range c.Nets {
		for _, v := range []uint8{0, 1} {
			l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
			if len(n.Fanout) > 1 {
				p := n.Fanout[0]
				l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v,
					BranchGate: p.Gate, BranchPin: p.Pin})
			}
		}
		l.Add(&fault.Fault{Model: fault.Transition, Net: n, Value: 0})
	}
	l.Add(&fault.Fault{Model: fault.Bridge, Net: c.NetByName("n1_o"), Other: c.NetByName("n2_o")})
	l.Add(&fault.Fault{Model: fault.Bridge, Net: c.NetByName("n2_o"), Other: c.NetByName("n1_o")})
	return l
}

func randomTests(n, npi int, seed int64) []Test {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Test, n)
	for i := range out {
		t := Test{Vec: make([]uint8, npi)}
		for j := range t.Vec {
			t.Vec[j] = uint8(rng.Intn(2))
		}
		if i%3 == 0 {
			t.Init = make([]uint8, npi)
			for j := range t.Init {
				t.Init[j] = uint8(rng.Intn(2))
			}
		}
		out[i] = t
	}
	return out
}

// TestPoolDetectsManyMatchesEngine: the sharded detection words equal one
// engine's per-fault Detects and the whole-circuit reference, block after
// block, at 1 and 2 workers.
func TestPoolDetectsManyMatchesEngine(t *testing.T) {
	c := poolCircuit()
	tests := randomTests(200, len(c.PIs), 7)
	faults := poolFaults(c).Faults
	eng := New(c)
	for _, workers := range []int{1, 2} {
		p := NewPool(c, workers)
		det := make([]logic.Word, len(faults))
		for start := 0; start < len(tests); start += 64 {
			b := p.SimBlock(tests[start:min(start+64, len(tests))])
			p.DetectsMany(faults, b, det)
			for i, f := range faults {
				if want := eng.Detects(f, b); det[i] != want {
					t.Fatalf("workers=%d block %d: fault %d word %x, engine %x", workers, start/64, i, det[i], want)
				}
				if want := refDetects(eng, f, b); det[i] != want {
					t.Fatalf("workers=%d block %d: fault %d word %x, reference %x", workers, start/64, i, det[i], want)
				}
			}
		}
	}
}

// TestPoolDetectedByMatchesEngine: Pool.DetectedBy's per-test credit equals
// the credit loop over the whole-circuit reference, at 1 and 2 workers, with
// pre-marked faults exercising the skip condition.
func TestPoolDetectedByMatchesEngine(t *testing.T) {
	c := poolCircuit()
	tests := randomTests(150, len(c.PIs), 11)

	ref := poolFaults(c)
	// Pre-mark a few faults to exercise the skip conditions.
	ref.Faults[0].Status = fault.Undetectable
	ref.Faults[1].Status = fault.Detected
	refPer := refDetectedBy(New(c), ref, tests)

	for _, workers := range []int{1, 2} {
		l := poolFaults(c)
		l.Faults[0].Status = fault.Undetectable
		l.Faults[1].Status = fault.Detected
		per := NewPool(c, workers).DetectedBy(l, tests)
		if !slices.Equal(per, refPer) {
			t.Fatalf("workers=%d: per-test credit %v, want %v", workers, per, refPer)
		}
	}
}
