package implic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/netlist"
)

// fuzzCells is the gate menu the fuzzer draws from; the mix covers
// inverting/non-inverting, symmetric and asymmetric truth tables.
var fuzzCells = []string{
	"INVX1", "BUFX2", "NAND2X1", "NOR2X1", "AND2X2", "OR2X2",
	"XOR2X1", "XNOR2X1", "NAND3X1", "AOI21X1", "OAI21X1", "MUX2X1",
}

// circuitFromBytes deterministically grows a small circuit from fuzz
// input: a PI count followed by (cell, fanin...) picks. Duplicate
// fanins are allowed on purpose — they exercise the engine's
// duplicate-input overapproximation. Returns nil when data is too
// short to make at least one gate.
func circuitFromBytes(data []byte) *netlist.Circuit {
	if len(data) < 3 {
		return nil
	}
	c := netlist.New("fuzz", lib)
	npi := 2 + int(data[0])%4
	for i := 0; i < npi; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	nets := append([]*netlist.Net(nil), c.Nets...)
	pos := 1
	for g := 0; g < 12 && pos < len(data); g++ {
		cell := lib.ByName(fuzzCells[int(data[pos])%len(fuzzCells)])
		pos++
		fanin := make([]*netlist.Net, cell.NumInputs())
		for i := range fanin {
			idx := 0
			if pos < len(data) {
				idx = int(data[pos]) % len(nets)
				pos++
			}
			fanin[i] = nets[idx]
		}
		out := c.AddGate(fmt.Sprintf("g%d", g), cell, fanin...)
		nets = append(nets, out)
	}
	if len(c.Gates) == 0 {
		return nil
	}
	// Observe every net nothing reads — the usual shape of a synthesized
	// block, and it keeps most of the circuit relevant to the screen.
	for _, n := range c.Nets {
		if len(n.Fanout) == 0 && !n.IsPO {
			c.MarkPO(n)
		}
	}
	return c
}

// markConeRef marks root and its transitive fanout, breadth first: the
// over-approximate set of nets whose faulty value may differ from the good
// value. It is the reference the engine's precomputed fanout cones are
// checked against.
func markConeRef(root *netlist.Net, cone []bool) {
	cone[root.ID] = true
	queue := []*netlist.Net{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, pn := range n.Fanout {
			out := pn.Gate.Out
			if !cone[out.ID] {
				cone[out.ID] = true
				queue = append(queue, out)
			}
		}
	}
}

// fuzzFaults lists the faults FuzzImplic screens: both stuck-at values on
// every stem and on every gate input branch, and a bridge in each
// direction between random distinct net pairs drawn from seed.
func fuzzFaults(c *netlist.Circuit, seed int64) *fault.List {
	list := &fault.List{}
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			list.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
		}
	}
	for _, g := range c.Gates {
		for pin, in := range g.Fanin {
			for v := uint8(0); v <= 1; v++ {
				list.Add(&fault.Fault{Model: fault.StuckAt, Net: in, BranchGate: g, BranchPin: pin, Value: v})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(c.Nets); i++ {
		a, b := c.Nets[rng.Intn(len(c.Nets))], c.Nets[rng.Intn(len(c.Nets))]
		if a == b {
			continue
		}
		list.Add(&fault.Fault{Model: fault.Bridge, Net: a, Other: b})
		list.Add(&fault.Fault{Model: fault.Bridge, Net: b, Other: a})
	}
	return list
}

// FuzzImplic checks five invariants on randomly grown circuits:
//   - every net's precomputed fanout cone equals the breadth-first walk
//     of markConeRef;
//   - closure determinism: the same circuit gives the same fingerprint;
//   - soundness: every stem or branch stuck-at fault and every bridge
//     the screen proves undetectable is proven impossible by a complete
//     PODEM search;
//   - query independence: screening the fault list forward and in
//     reverse gives the same verdicts, so no query's pooled scratch
//     leaks into the next;
//   - schedule independence: atpg.Run with the screen on produces
//     byte-identical statuses at 1 and 3 workers.
func FuzzImplic(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 4, 1, 2, 5, 2, 3})
	f.Add([]byte{3, 11, 0, 1, 2, 3, 6, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 4, 0, 0, 5, 1, 1, 0, 2, 2, 8, 3, 1, 0})
	f.Add([]byte{2, 9, 0, 1, 2, 9, 3, 4, 0, 10, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := circuitFromBytes(data)
		if c == nil {
			t.Skip("not enough bytes for a circuit")
		}
		e := implic.New(c)
		if e == nil {
			t.Fatal("New returned nil for a small circuit")
		}
		for _, root := range c.Nets {
			ref := make([]bool, len(c.Nets))
			markConeRef(root, ref)
			for _, n := range c.Nets {
				if got := e.InFanoutCone(root.ID, n.ID); got != ref[n.ID] {
					t.Fatalf("fanout cone of %s: %s in cone = %v, reference walk says %v",
						root.Name, n.Name, got, ref[n.ID])
				}
			}
		}
		if e2 := implic.New(circuitFromBytes(data)); e2.Fingerprint() != e.Fingerprint() {
			t.Fatalf("closure not deterministic: %x vs %x", e.Fingerprint(), e2.Fingerprint())
		}

		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		list := fuzzFaults(c, seed)
		verdicts := make([]bool, len(list.Faults))
		for i, fa := range list.Faults {
			verdicts[i] = e.Undetectable(fa)
		}
		for i := len(list.Faults) - 1; i >= 0; i-- {
			if got := e.Undetectable(list.Faults[i]); got != verdicts[i] {
				t.Fatalf("%v: verdict %v screening forward, %v in reverse", list.Faults[i], verdicts[i], got)
			}
		}

		// Soundness: every screened fault must be proven impossible by
		// an unseeded complete search.
		order := c.Levelize()
		levels := c.Levels()
		for i, fa := range list.Faults {
			if !verdicts[i] {
				continue
			}
			out, _ := atpg.GenerateOne(c, order, levels, fa, 200000, rand.New(rand.NewSource(11)))
			if out == atpg.FoundTest {
				t.Fatalf("UNSOUND: screen proved %v but PODEM found a test", fa)
			}
		}

		// Worker-count independence with the screen enabled.
		status := func(workers int) []fault.Status {
			l := &fault.List{}
			for _, fa := range list.Faults {
				cp := *fa
				l.Add(&cp)
			}
			atpg.Run(c, l, atpg.Config{
				Seed: 42, Workers: workers, Static: implic.ModeScreen,
			})
			st := make([]fault.Status, len(l.Faults))
			for i, fa := range l.Faults {
				st[i] = fa.Status
			}
			return st
		}
		s1 := status(1)
		s3 := status(3)
		for i := range s1 {
			if s1[i] != s3[i] {
				t.Fatalf("fault %d status differs across worker counts: %v vs %v",
					i, s1[i], s3[i])
			}
		}
	})
}
