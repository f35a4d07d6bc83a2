package atpg

import (
	"math"
	"math/rand"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
)

// wideCircuit builds a random netlist with more PIs than randCircuit, so
// that a fault's cone leaves PIs, gates and POs out.
func wideCircuit(rng *rand.Rand, pis, gates int) *netlist.Circuit {
	names := []string{"NAND2X1", "NOR2X1", "XOR2X1", "INVX1", "AND2X2", "OAI21X1", "MUX2X1", "AOI22X1"}
	c := netlist.New("wide", lib)
	var nets []*netlist.Net
	for i := 0; i < pis; i++ {
		nets = append(nets, c.AddPI(""))
	}
	for i := 0; i < gates; i++ {
		cell := lib.ByName(names[rng.Intn(len(names))])
		fanin := make([]*netlist.Net, cell.NumInputs())
		for j := range fanin {
			fanin[j] = nets[rng.Intn(len(nets))]
		}
		nets = append(nets, c.AddGate("", cell, fanin...))
	}
	for _, n := range nets {
		if len(n.Fanout) == 0 || rng.Intn(6) == 0 {
			c.MarkPO(n)
		}
	}
	return c
}

// widenToCircuit replaces p's cone and region by the whole circuit, so that
// implication, the D-frontier scan, detected and firstFreePI visit every
// gate, PI and PO, and every gate is evaluated in the faulty circuit.
func widenToCircuit(p *podem) {
	p.cone = append(p.cone[:0], p.order...)
	p.regionGates = append(p.regionGates[:0], p.order...)
	p.conePIs = p.conePIs[:0]
	for i := range p.c.PIs {
		p.conePIs = append(p.conePIs, i)
	}
	p.conePOs = append(p.conePOs[:0], p.c.POs...)
	p.region = append(p.region[:0], p.c.Nets...)
	p.indexCone()
}

// TestConeMatchesWholeCircuit drives a cone-bounded engine and a
// whole-circuit engine through the same partial PI assignments, for every
// target effect and for justification, and requires identical values on
// every cone net and identical detection, objective and free-PI decisions.
// Each engine starts as a search does, with a whole-cone implication, and
// every later assignment goes through the search's setter, so the values
// compared after it are the event-driven implication's.
func TestConeMatchesWholeCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		c := wideCircuit(rng, 10, 30)
		order, levels := c.Levelize(), c.Levels()
		cone := newPodem(c, order, levels, 100)
		cone.epoch = math.MaxUint32 - 3 // cross the visited-set wrap-around early
		whole := newPodem(c, order, levels, 100)
		extra := []fault.Cond{{Net: c.Nets[rng.Intn(len(c.Nets))], Val: uint8(rng.Intn(2))}}
		for _, cfg := range searchConfigs(t, rng, c, extra) {
			cfg.set(cone)
			cfg.set(whole)
			for i := range cone.piVal {
				cone.piVal[i], whole.piVal[i] = -1, -1
			}
			cone.buildCone()
			widenToCircuit(whole)
			cone.implyCone()
			whole.implyCone()
			for step := 0; step < 6; step++ {
				if step > 0 {
					cone.imply()
					whole.imply()
				}
				for _, g := range cone.cone {
					n := g.Out
					if cone.good[n.ID] != whole.good[n.ID] || cone.vals[n.ID] != whole.vals[n.ID] {
						t.Fatalf("trial %d %s step %d: net %s good/vals %v/%v, whole circuit %v/%v",
							trial, cfg.name, step, n.Name, cone.good[n.ID], cone.vals[n.ID], whole.good[n.ID], whole.vals[n.ID])
					}
				}
				if a, b := cone.detected(), whole.detected(); a != b {
					t.Fatalf("trial %d %s step %d: detected %v, whole circuit %v", trial, cfg.name, step, a, b)
				}
				n1, v1, ok1 := cone.objective()
				n2, v2, ok2 := whole.objective()
				if n1 != n2 || v1 != v2 || ok1 != ok2 {
					t.Fatalf("trial %d %s step %d: objective (%v,%d,%v), whole circuit (%v,%d,%v)",
						trial, cfg.name, step, n1, v1, ok1, n2, v2, ok2)
				}
				i1, w1, f1 := cone.firstFreePI()
				i2, w2, f2 := whole.firstFreePI()
				if i1 != i2 || w1 != w2 || f1 != f2 {
					t.Fatalf("trial %d %s step %d: firstFreePI (%d,%d,%v), whole circuit (%d,%d,%v)",
						trial, cfg.name, step, i1, w1, f1, i2, w2, f2)
				}
				// Assign any PI, inside the cone or not: PIs outside it
				// must not move a value the search reads.
				pi := rng.Intn(len(c.PIs))
				v := int8(rng.Intn(2))
				cone.set(pi, v)
				whole.set(pi, v)
			}
		}
	}
}

// TestStemFaultOnPIThatIsPO: a PI that is also a PO observes its own stem
// fault, whether or not it fans out further.
func TestStemFaultOnPIThatIsPO(t *testing.T) {
	c := netlist.New("pipo", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	y := c.AddGate("u", lib.ByName("NAND2X1"), a, b)
	c.MarkPO(a)
	c.MarkPO(d)
	c.MarkPO(y)
	for _, n := range []*netlist.Net{a, d} {
		for v := uint8(0); v <= 1; v++ {
			f := &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}
			out, tv := gen(t, c, f, 100)
			if out != FoundTest {
				t.Fatalf("%s stuck-at-%d on a PI that is a PO: %v, want FoundTest", n.Name, v, out)
			}
			verifyDetects(t, c, f, tv)
		}
	}
}
