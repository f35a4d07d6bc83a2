package place

import (
	"fmt"
	"reflect"
	"testing"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
)

func TestIncrementalIdenticalNetlist(t *testing.T) {
	c := randomCircuit(t, 41, 120)
	p, err := Place(c, 0.70, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlaceIncremental(c, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if p.Loc[g.ID] != p2.Loc[g.ID] {
			t.Fatalf("gate %s moved: %v -> %v", g.Name, p.Loc[g.ID], p2.Loc[g.ID])
		}
	}
	if p.WireLength() != p2.WireLength() {
		t.Error("wirelength changed for identical netlist")
	}
	if !reflect.DeepEqual(p.PIPad, p2.PIPad) || !reflect.DeepEqual(p.POPad, p2.POPad) {
		t.Error("pads moved for identical netlist")
	}
}

// TestIncrementalAfterEdit: remove some gates, add new ones; old gates stay
// put, new gates fill gaps legally.
func TestIncrementalAfterEdit(t *testing.T) {
	c := randomCircuit(t, 42, 150)
	p, err := Place(c, 0.70, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the circuit dropping ~20 gates and re-deriving some logic
	// with fresh gates via a region rebuild.
	region := netlist.ExtractRegion(c.Gates[30:50])
	nc, err := c.RebuildReplacing(region, func(out *netlist.Circuit, ins []*netlist.Net) []*netlist.Net {
		// Replace the region's outputs with fresh INV(INV(x)) of the
		// first input — not functionally equivalent, but this test
		// only cares about placement legality.
		outs := make([]*netlist.Net, len(region.Outputs))
		for i := range outs {
			n1 := out.AddGate(fmt.Sprintf("new_a%d", i), lib.ByName("INVX1"), ins[i%len(ins)])
			outs[i] = out.AddGate(fmt.Sprintf("new_b%d", i), lib.ByName("INVX1"), n1)
		}
		return outs
	})
	if err != nil {
		t.Fatal(err)
	}

	p2, err := PlaceIncremental(nc, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kept gates (same name) stay put; the rebuild must both drop and add
	// gates, or the check is vacuous.
	oldLoc := map[string]geom.Pt{}
	for _, g := range c.Gates {
		oldLoc[g.Name] = p.Loc[g.ID]
	}
	kept, added := 0, 0
	for _, g := range nc.Gates {
		loc, ok := oldLoc[g.Name]
		if !ok {
			added++
			continue
		}
		kept++
		if p2.Loc[g.ID] != loc {
			t.Errorf("kept gate %s moved: %v -> %v", g.Name, loc, p2.Loc[g.ID])
		}
	}
	if added == 0 || kept == len(c.Gates) {
		t.Fatalf("rebuild should add and remove gates (kept %d of %d, added %d)", kept, len(c.Gates), added)
	}
	// Legality: no overlaps, everything inside the die.
	type span struct{ x0, x1 int }
	rows := map[int][]span{}
	for _, g := range nc.Gates {
		loc := p2.Loc[g.ID]
		w := p2.W[g.ID]
		if loc.X < p2.Die.X0 || loc.X+w > p2.Die.X1 || loc.Y < p2.Die.Y0 || loc.Y >= p2.Die.Y1 {
			t.Fatalf("gate %s escapes die", g.Name)
		}
		rows[loc.Y] = append(rows[loc.Y], span{loc.X, loc.X + w})
	}
	for y, spans := range rows {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.x0 < b.x1 && b.x0 < a.x1 {
					t.Fatalf("overlap in row %d", y)
				}
			}
		}
	}
}

func TestIncrementalOutOfSpace(t *testing.T) {
	c := randomCircuit(t, 43, 60)
	p, err := Place(c, 0.95, 1) // very tight die
	if err != nil {
		t.Skip("tight placement did not fit at all")
	}
	// Add many new gates: must eventually fail with an area error.
	region := netlist.ExtractRegion(c.Gates[:5])
	nc, err := c.RebuildReplacing(region, func(out *netlist.Circuit, ins []*netlist.Net) []*netlist.Net {
		outs := make([]*netlist.Net, len(region.Outputs))
		for i := range outs {
			n := ins[i%len(ins)]
			for k := 0; k < 40; k++ {
				n = out.AddGate(fmt.Sprintf("grow_%d_%d", i, k), lib.ByName("BUFX4"), n)
			}
			outs[i] = n
		}
		return outs
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceIncremental(nc, p, 1); err == nil {
		t.Error("expected out-of-space error for a massively grown netlist")
	}
}
