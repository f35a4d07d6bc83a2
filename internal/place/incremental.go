package place

import (
	"fmt"
	"sort"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
)

// PlaceIncremental places circuit c into the same die as prev, keeping
// every gate that also exists in prev's circuit (matched by instance name)
// at its previous location — an ECO-style placement. New gates are packed
// first-fit into the row gaps left by removed gates, then refined by swaps
// among themselves only, so the unchanged part of the design keeps its
// timing behavior. It fails when the new gates do not fit, which the
// resynthesis flow reports as an area-constraint violation.
func PlaceIncremental(c *netlist.Circuit, prev *Placement, seed int64) (*Placement, error) {
	die := prev.Die
	p := &Placement{
		C:    c,
		Die:  die,
		Rows: die.H(),
		Loc:  make([]geom.Pt, len(c.Gates)),
		W:    make([]int, len(c.Gates)),
	}
	for _, g := range c.Gates {
		p.W[g.ID] = CellWidth(g)
	}

	prevLoc := make(map[string]geom.Pt, len(prev.C.Gates))
	prevW := make(map[string]int, len(prev.C.Gates))
	for _, g := range prev.C.Gates {
		prevLoc[g.Name] = prev.Loc[g.ID]
		prevW[g.Name] = prev.W[g.ID]
	}

	// Row occupancy from kept gates.
	type span struct{ x0, x1 int }
	rows := make([][]span, die.H())
	var newGates []*netlist.Gate
	for _, g := range c.Gates {
		loc, ok := prevLoc[g.Name]
		if ok && prevW[g.Name] == p.W[g.ID] {
			p.Loc[g.ID] = loc
			r := loc.Y - die.Y0
			rows[r] = append(rows[r], span{loc.X, loc.X + p.W[g.ID]})
			continue
		}
		newGates = append(newGates, g)
	}
	for r := range rows {
		sort.Slice(rows[r], func(i, j int) bool { return rows[r][i].x0 < rows[r][j].x0 })
	}

	// Free gaps per row.
	type gap struct{ row, x0, x1 int }
	var gaps []gap
	for r := range rows {
		x := die.X0
		for _, s := range rows[r] {
			if s.x0 > x {
				gaps = append(gaps, gap{r, x, s.x0})
			}
			if s.x1 > x {
				x = s.x1
			}
		}
		if x < die.X1 {
			gaps = append(gaps, gap{r, x, die.X1})
		}
	}

	// First-fit: wider gates first for better packing (stable order).
	sort.SliceStable(newGates, func(i, j int) bool {
		return p.W[newGates[i].ID] > p.W[newGates[j].ID]
	})
	for _, g := range newGates {
		w := p.W[g.ID]
		placed := false
		for gi := range gaps {
			if gaps[gi].x1-gaps[gi].x0 >= w {
				p.Loc[g.ID] = geom.Pt{X: gaps[gi].x0, Y: die.Y0 + gaps[gi].row}
				gaps[gi].x0 += w
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: incremental placement out of space for %s", ErrConstraint, g.Name)
		}
	}

	p.placePads()
	p.refine(newGates, seed)
	return p, nil
}
