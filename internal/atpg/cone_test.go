package atpg

import (
	"math"
	"math/rand"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
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

// widenToCircuit replaces p's cone by the whole circuit, so that imply, the
// D-frontier scan, detected and firstFreePI visit every gate, PI and PO.
func widenToCircuit(p *podem) {
	p.cone = append(p.cone[:0], p.order...)
	p.conePIs = p.conePIs[:0]
	for i := range p.c.PIs {
		p.conePIs = append(p.conePIs, i)
	}
	p.conePOs = append(p.conePOs[:0], p.c.POs...)
	p.region = append(p.region[:0], p.c.Nets...)
}

// TestConeMatchesWholeCircuit drives a cone-bounded engine and a
// whole-circuit engine through the same partial PI assignments, for every
// target effect and for justification, and requires identical values on
// every cone net and identical detection, objective and free-PI decisions.
func TestConeMatchesWholeCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		c := wideCircuit(rng, 10, 30)
		order, levels := c.Levelize(), c.Levels()
		cone := newPodem(c, order, levels, 100)
		cone.epoch = math.MaxUint32 - 3 // cross the visited-set wrap-around early
		whole := newPodem(c, order, levels, 100)
		extra := []fault.Cond{{Net: c.Nets[rng.Intn(len(c.Nets))], Val: uint8(rng.Intn(2))}}

		// aim configures p for target k of f as GenerateWith does, with
		// the extra condition after the target's own.
		aim := func(p *podem, f *fault.Fault, k int) {
			p.targets.Reset(f)
			for ; k >= 0; k-- {
				if !p.targets.Next() {
					t.Fatalf("%v: too few targets", f)
				}
			}
			tg := p.targets.Target()
			p.t, p.conds = tg, append(append(p.conds[:0], tg.Conds...), extra...)
		}
		var configs []func(p *podem)
		for _, n := range c.Nets {
			v := uint8(rng.Intn(2))
			configs = append(configs, func(p *podem) {
				aim(p, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}, 0)
			})
			if len(n.Fanout) > 0 {
				pin := n.Fanout[rng.Intn(len(n.Fanout))]
				configs = append(configs, func(p *podem) {
					aim(p, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v,
						BranchGate: pin.Gate, BranchPin: pin.Pin}, 0)
				})
			}
			other := c.Nets[rng.Intn(len(c.Nets))]
			configs = append(configs, func(p *podem) {
				// Target 0 is the victim-1 polarity, target 1 victim 0.
				aim(p, &fault.Fault{Model: fault.Bridge, Net: n, Other: other}, int(v^1))
			})
			configs = append(configs, func(p *podem) {
				p.t, p.conds = nil, append(p.conds[:0], fault.Cond{Net: n, Val: v})
			})
		}
		for _, g := range c.Gates {
			asg := uint(rng.Intn(1 << uint(len(g.Fanin))))
			beh := &switchsim.Behavior{Inputs: len(g.Fanin), StaticMask: 1 << asg}
			configs = append(configs, func(p *podem) {
				aim(p, &fault.Fault{Model: fault.CellAware, Gate: g, Behavior: beh}, 0)
			})
		}

		for ci, configure := range configs {
			configure(cone)
			configure(whole)
			for i := range cone.piVal {
				cone.piVal[i], whole.piVal[i] = -1, -1
			}
			cone.buildCone()
			widenToCircuit(whole)
			for step := 0; step < 6; step++ {
				cone.imply()
				whole.imply()
				for _, g := range cone.cone {
					n := g.Out
					if cone.good[n.ID] != whole.good[n.ID] || cone.vals[n.ID] != whole.vals[n.ID] {
						t.Fatalf("trial %d config %d step %d: net %s good/vals %v/%v, whole circuit %v/%v",
							trial, ci, step, n.Name, cone.good[n.ID], cone.vals[n.ID], whole.good[n.ID], whole.vals[n.ID])
					}
				}
				if a, b := cone.detected(), whole.detected(); a != b {
					t.Fatalf("trial %d config %d step %d: detected %v, whole circuit %v", trial, ci, step, a, b)
				}
				n1, v1, ok1 := cone.objective()
				n2, v2, ok2 := whole.objective()
				if n1 != n2 || v1 != v2 || ok1 != ok2 {
					t.Fatalf("trial %d config %d step %d: objective (%v,%d,%v), whole circuit (%v,%d,%v)",
						trial, ci, step, n1, v1, ok1, n2, v2, ok2)
				}
				i1, w1, f1 := cone.firstFreePI()
				i2, w2, f2 := whole.firstFreePI()
				if i1 != i2 || w1 != w2 || f1 != f2 {
					t.Fatalf("trial %d config %d step %d: firstFreePI (%d,%d,%v), whole circuit (%d,%d,%v)",
						trial, ci, step, i1, w1, f1, i2, w2, f2)
				}
				// Assign any PI, inside the cone or not: PIs outside it
				// must not move a value the search reads.
				pi := rng.Intn(len(c.PIs))
				v := int8(rng.Intn(2))
				cone.piVal[pi], whole.piVal[pi] = v, v
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
