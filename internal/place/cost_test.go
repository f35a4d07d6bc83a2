package place

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
)

// costCircuits returns the circuits of the cost tests: random ones and the
// twelve paper circuits plus synth1k (only two random ones under -short).
func costCircuits(t *testing.T) []*netlist.Circuit {
	cs := []*netlist.Circuit{randomCircuit(t, 61, 90), randomCircuit(t, 62, 240)}
	if testing.Short() {
		return cs
	}
	for _, name := range append(append([]string(nil), bench.Names...), "synth1k") {
		cs = append(cs, bench.MustBuild(name, lib))
	}
	return cs
}

// TestNetHPWLMatchesTerminals: the refiner's one-pass cost equals the HPWL
// of NetTerminals for every net, on refined placements and on placements
// that scatter the cells over the die at random.
func TestNetHPWLMatchesTerminals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range costCircuits(t) {
		p, err := Place(c, 0.70, 1)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			for _, n := range c.Nets {
				if got, want := p.netHPWL(n), geom.HPWL(p.NetTerminals(n)); got != want {
					t.Fatalf("%s %s net %s: netHPWL %d, HPWL of terminals %d", c.Name, what, n.Name, got, want)
				}
			}
		}
		check("placed")
		for i := range p.Loc {
			p.Loc[i] = geom.Pt{X: p.Die.X0 + rng.Intn(p.Die.W()), Y: p.Die.Y0 + rng.Intn(p.Die.H())}
		}
		check("scattered")
	}
}

// TestNetHPWLPadCases covers the nets whose terminals are pads: a PI that is
// also a PO, a PO listed twice, an undriven net without sinks.
func TestNetHPWLPadCases(t *testing.T) {
	c := netlist.New("pads", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	y := c.AddGate("u0", lib.ByName("NAND2X1"), a, b)
	c.MarkPO(a)
	c.MarkPO(y)
	c.MarkPO(y)
	c.AddPI("unused")
	p, err := Place(c, 0.70, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nets {
		if got, want := p.netHPWL(n), geom.HPWL(p.NetTerminals(n)); got != want {
			t.Errorf("net %s: netHPWL %d, HPWL of terminals %d", n.Name, got, want)
		}
	}
}

// referenceRefine is the swap refiner with its original cost: the HPWL of
// each net's NetTerminals slice.
func referenceRefine(p *Placement, gates []*netlist.Gate, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	gateCost := func(g *netlist.Gate) int {
		cost := geom.HPWL(p.NetTerminals(g.Out))
		for _, in := range g.Fanin {
			cost += geom.HPWL(p.NetTerminals(in))
		}
		return cost
	}
	moves := 12 * len(gates)
	for m := 0; m < moves; m++ {
		a := gates[rng.Intn(len(gates))]
		b := gates[rng.Intn(len(gates))]
		if a == b || p.W[a.ID] != p.W[b.ID] {
			continue
		}
		before := gateCost(a) + gateCost(b)
		p.Loc[a.ID], p.Loc[b.ID] = p.Loc[b.ID], p.Loc[a.ID]
		after := gateCost(a) + gateCost(b)
		if after >= before {
			p.Loc[a.ID], p.Loc[b.ID] = p.Loc[b.ID], p.Loc[a.ID]
		}
	}
}

// TestRefineMatchesReference: Place and PlaceIncremental leave every cell
// where the reference refiner leaves it. The incremental case renames every
// seventh gate, so those gates are new to the ECO placement and refined
// among themselves.
func TestRefineMatchesReference(t *testing.T) {
	defer func() { testHookRefine = nil }()
	for _, c := range costCircuits(t) {
		eco := c.Clone()
		for i, g := range eco.Gates {
			if i%7 == 3 {
				g.Name += "_eco"
			}
		}
		run := func(ref bool) (*Placement, *Placement) {
			testHookRefine = nil
			if ref {
				testHookRefine = referenceRefine
			}
			p, err := Place(c, 0.70, 3)
			if err != nil {
				t.Fatal(err)
			}
			q, err := PlaceIncremental(eco, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			return p, q
		}
		pRef, qRef := run(true)
		p, q := run(false)
		for _, g := range c.Gates {
			if p.Loc[g.ID] != pRef.Loc[g.ID] {
				t.Fatalf("%s: Place puts %s at %v, the reference refiner at %v", c.Name, g.Name, p.Loc[g.ID], pRef.Loc[g.ID])
			}
		}
		moved := 0
		for _, g := range eco.Gates {
			if q.Loc[g.ID] != qRef.Loc[g.ID] {
				t.Fatalf("%s: PlaceIncremental puts %s at %v, the reference refiner at %v", c.Name, g.Name, q.Loc[g.ID], qRef.Loc[g.ID])
			}
			if q.Loc[g.ID] != p.Loc[g.ID] {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("%s: the ECO placement moved no renamed gate; the incremental check is vacuous", c.Name)
		}
	}
}
