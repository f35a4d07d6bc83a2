// Package place implements row-based standard-cell placement inside a fixed
// floorplan: a serpentine initial placement in topological order followed by
// greedy pairwise-swap refinement of half-perimeter wirelength. The die is
// sized for a target core utilization (the paper uses 70%) and — crucially
// for the resynthesis procedure — a resynthesized netlist can be re-placed
// into the *original* die, failing if it no longer fits, which enforces the
// paper's fixed-die-area constraint.
package place

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
)

// ErrConstraint is the sentinel wrapped by every placement failure caused by
// the fixed-die-area design constraint (as opposed to an internal error):
// callers — and the CLI's exit-code mapping — detect it with errors.Is.
var ErrConstraint = errors.New("place: design constraint violated")

// Placement is the result of placing a circuit.
type Placement struct {
	C    *netlist.Circuit
	Die  geom.Rect
	Rows int
	Loc  []geom.Pt // per gate ID: cell origin (row-left corner)
	W    []int     // per gate ID: width in grid units

	PIPad []geom.Pt // per PI index: pad location on the left edge
	POPad []geom.Pt // per PO index: pad location on the right edge

	// piIdx/poIdx map a net ID to its pad index, -1 for a net without
	// one — built by placePads so a net's pads resolve by one slice read
	// (under every HPWL evaluation of the swap refiner and every net the
	// router processes).
	piIdx, poIdx []int32
}

// CellWidth returns the grid width of a gate (ceil of cell area).
func CellWidth(g *netlist.Gate) int {
	w := int(math.Ceil(g.Type.Area))
	if w < 1 {
		w = 1
	}
	return w
}

// DieFor computes a near-square fixed die for the circuit at the given core
// utilization.
func DieFor(c *netlist.Circuit, util float64) geom.Rect {
	total := 0
	for _, g := range c.Gates {
		total += CellWidth(g)
	}
	if total == 0 {
		total = 1
	}
	area := float64(total) / util
	rows := int(math.Ceil(math.Sqrt(area)))
	width := int(math.Ceil(area / float64(rows)))
	// The die must accommodate the widest cell in a row.
	maxW := 1
	for _, g := range c.Gates {
		if w := CellWidth(g); w > maxW {
			maxW = w
		}
	}
	if width < maxW {
		width = maxW
	}
	if rows < 1 {
		rows = 1
	}
	return geom.Rect{X0: 0, Y0: 0, X1: width, Y1: rows}
}

// Place places the circuit into a fresh die sized at the given utilization.
func Place(c *netlist.Circuit, util float64, seed int64) (*Placement, error) {
	return PlaceInDie(c, DieFor(c, util), seed)
}

// PlaceInDie places the circuit into an existing die. It returns an error
// when the cells do not fit, which the resynthesis procedure treats as an
// area-constraint violation.
func PlaceInDie(c *netlist.Circuit, die geom.Rect, seed int64) (*Placement, error) {
	p := &Placement{
		C:   c,
		Die: die,
		Loc: make([]geom.Pt, len(c.Gates)),
		W:   make([]int, len(c.Gates)),
	}
	p.Rows = die.H()
	for _, g := range c.Gates {
		p.W[g.ID] = CellWidth(g)
	}

	// Serpentine fill in topological order (keeps connected cells close).
	order := c.Levelize()
	row, x := 0, 0
	dir := 1
	for _, g := range order {
		w := p.W[g.ID]
		if w > die.W() {
			return nil, fmt.Errorf("%w: cell %s wider than die", ErrConstraint, g.Name)
		}
		fits := func() bool {
			if dir > 0 {
				return x+w <= die.W()
			}
			return x-w >= 0
		}
		if !fits() {
			row++
			if row >= p.Rows {
				return nil, fmt.Errorf("%w: circuit does not fit in %dx%d die", ErrConstraint, die.W(), die.H())
			}
			dir = -dir
			if dir > 0 {
				x = 0
			} else {
				x = die.W()
			}
		}
		if dir > 0 {
			p.Loc[g.ID] = geom.Pt{X: die.X0 + x, Y: die.Y0 + row}
			x += w
		} else {
			x -= w
			p.Loc[g.ID] = geom.Pt{X: die.X0 + x, Y: die.Y0 + row}
		}
	}

	p.placePads()
	p.refine(c.Gates, seed)
	return p, nil
}

// placePads distributes PI pads along the left edge and PO pads along the
// right edge.
func (p *Placement) placePads() {
	c := p.C
	p.PIPad = make([]geom.Pt, len(c.PIs))
	for i := range c.PIs {
		y := p.Die.Y0
		if len(c.PIs) > 1 {
			y += i * (p.Die.H() - 1) / (len(c.PIs) - 1)
		}
		p.PIPad[i] = geom.Pt{X: p.Die.X0, Y: y}
	}
	p.POPad = make([]geom.Pt, len(c.POs))
	for i := range c.POs {
		y := p.Die.Y0
		if len(c.POs) > 1 {
			y += i * (p.Die.H() - 1) / (len(c.POs) - 1)
		}
		p.POPad[i] = geom.Pt{X: p.Die.X1 - 1, Y: y}
	}
	p.piIdx = padIndex(len(c.Nets), c.PIs)
	p.poIdx = padIndex(len(c.Nets), c.POs)
}

// padIndex maps each net ID to the position of its first occurrence in
// pads, -1 for a net not in pads.
func padIndex(nets int, pads []*netlist.Net) []int32 {
	idx := make([]int32, nets)
	for i := range idx {
		idx[i] = -1
	}
	for i, n := range pads {
		if idx[n.ID] < 0 {
			idx[n.ID] = int32(i)
		}
	}
	return idx
}

// NetTerminals returns the terminal points of a net: the driver cell or PI
// pad, every sink cell, and the PO pad when the net is a primary output.
func (p *Placement) NetTerminals(n *netlist.Net) []geom.Pt {
	var pts []geom.Pt
	if n.Driver != nil {
		pts = append(pts, p.Loc[n.Driver.ID])
	} else if i := p.piIdx[n.ID]; i >= 0 {
		pts = append(pts, p.PIPad[i])
	}
	for _, pin := range n.Fanout {
		pts = append(pts, p.Loc[pin.Gate.ID])
	}
	if n.IsPO {
		if i := p.poIdx[n.ID]; i >= 0 {
			pts = append(pts, p.POPad[i])
		}
	}
	return pts
}

// netHPWL is geom.HPWL(p.NetTerminals(n)), computed in one pass over the
// same terminals without building the slice: the swap refiner's cost,
// evaluated for every net of both swapped gates on every move.
func (p *Placement) netHPWL(n *netlist.Net) int {
	var b box
	if n.Driver != nil {
		b.add(p.Loc[n.Driver.ID])
	} else if i := p.piIdx[n.ID]; i >= 0 {
		b.add(p.PIPad[i])
	}
	for _, pin := range n.Fanout {
		b.add(p.Loc[pin.Gate.ID])
	}
	if n.IsPO {
		if i := p.poIdx[n.ID]; i >= 0 {
			b.add(p.POPad[i])
		}
	}
	return b.hpwl()
}

// box is the bounding box of the points added to it.
type box struct {
	x0, y0, x1, y1 int
	set            bool
}

func (b *box) add(pt geom.Pt) {
	if !b.set {
		*b = box{pt.X, pt.Y, pt.X, pt.Y, true}
		return
	}
	b.x0, b.x1 = min(b.x0, pt.X), max(b.x1, pt.X)
	b.y0, b.y1 = min(b.y0, pt.Y), max(b.y1, pt.Y)
}

// hpwl is the box's half-perimeter, 0 when it holds no point.
func (b *box) hpwl() int {
	return (b.x1 - b.x0) + (b.y1 - b.y0)
}

// VerifyLegal checks the placement against the die: every cell footprint
// inside the boundary and no two footprints overlapping. Overlap detection
// runs on the shared grid index (footprints only pair up inside shared
// buckets); the reported pair is the smallest by gate ID, so the error is
// deterministic regardless of discovery order. Violations wrap
// ErrConstraint.
func (p *Placement) VerifyLegal() error {
	idx := geom.NewGrid(p.Die, geom.DefaultGridCell)
	for _, g := range p.C.Gates {
		loc, w := p.Loc[g.ID], p.W[g.ID]
		r := geom.Rect{X0: loc.X, Y0: loc.Y, X1: loc.X + w, Y1: loc.Y + 1}
		if loc.X < p.Die.X0 || r.X1 > p.Die.X1 || loc.Y < p.Die.Y0 || r.Y1 > p.Die.Y1 {
			return fmt.Errorf("%w: cell %s at (%d,%d) width %d outside die", ErrConstraint, g.Name, loc.X, loc.Y, w)
		}
		idx.Insert(int32(g.ID), r)
	}
	bestA, bestB := -1, -1
	idx.Pairs(func(a, b geom.GridItem) {
		if bestA < 0 || int(a.ID) < bestA || (int(a.ID) == bestA && int(b.ID) < bestB) {
			bestA, bestB = int(a.ID), int(b.ID)
		}
	})
	if bestA >= 0 {
		return fmt.Errorf("%w: cells %s and %s overlap", ErrConstraint, p.C.Gates[bestA].Name, p.C.Gates[bestB].Name)
	}
	return nil
}

// WireLength returns the total HPWL over all nets.
func (p *Placement) WireLength() int {
	total := 0
	for _, n := range p.C.Nets {
		total += geom.HPWL(p.NetTerminals(n))
	}
	return total
}

// refine runs greedy pairwise location swaps among the given gates,
// accepting only HPWL improvements: 12 moves per gate, each swapping two
// random same-width gates and keeping the swap only if the HPWL of the nets
// touching them falls. Deterministic under the seed.
func (p *Placement) refine(gates []*netlist.Gate, seed int64) {
	if len(gates) < 2 {
		return
	}
	if testHookRefine != nil {
		testHookRefine(p, gates, seed)
		return
	}
	rng := rand.New(rand.NewSource(seed))

	// Incremental cost: HPWL of the nets touching a gate.
	gateCost := func(g *netlist.Gate) int {
		cost := p.netHPWL(g.Out)
		for _, in := range g.Fanin {
			cost += p.netHPWL(in)
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

// testHookRefine, set only by tests, replaces the swap refiner: the tests
// run a reference refiner through it.
var testHookRefine func(p *Placement, gates []*netlist.Gate, seed int64)
