// Package route implements a deterministic congestion-aware pattern router
// over two routing layers (M2 horizontal, M3 vertical) above the cell-level
// M1, producing real segments and vias whose geometry the DFM guideline
// checker analyzes. Each two-point connection is routed with the cheaper of
// its two L-shapes under the current congestion map; multi-terminal nets are
// built as trees, connecting each terminal to the nearest already-routed
// terminal.
package route

import (
	"sort"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/place"
)

// Layer identifies a metal layer.
type Layer uint8

// Metal layers. M1 is cell-internal / pin level; routing uses M2 and M3.
const (
	M1 Layer = 1
	M2 Layer = 2
	M3 Layer = 3
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case M1:
		return "M1"
	case M2:
		return "M2"
	case M3:
		return "M3"
	}
	return "M?"
}

// Seg is one axis-aligned wire segment on a layer; A is the lower-left end.
type Seg struct {
	Layer Layer
	A, B  geom.Pt
}

// Len returns the segment length in grid units.
func (s Seg) Len() int { return s.A.Manhattan(s.B) }

// Horizontal reports whether the segment runs in X.
func (s Seg) Horizontal() bool { return s.A.Y == s.B.Y }

// Via is a cut between two layers at a point.
type Via struct {
	At       geom.Pt
	From, To Layer
	// Redundant is set when the router had room to double the cut; DFM
	// via guidelines flag non-redundant vias on long wires.
	Redundant bool
}

// NetRoute is the routed geometry of one net.
type NetRoute struct {
	Net  *netlist.Net
	Segs []Seg
	Vias []Via
}

// Length returns the total routed wirelength of the net.
func (r *NetRoute) Length() int {
	total := 0
	for _, s := range r.Segs {
		total += s.Len()
	}
	return total
}

// Layout is the routed design: per-net geometry plus per-layer occupancy.
type Layout struct {
	P      *place.Placement
	Routes []NetRoute // indexed by net ID

	// Occ[layer][y][x] lists the IDs of nets using the grid cell on that
	// routing layer (layer index 0 = M2, 1 = M3). More than one entry
	// means tracks packed at minimum pitch (or overflow) — exactly the
	// situations DFM spacing guidelines target.
	Occ [2][][]([]int32)
}

// SegPairsNaive returns the number of segment pairs an all-pairs per-layer
// proximity check would examine on this layout — the naive-cost baseline
// the DFM scan's pair-reduction metric is measured against.
func SegPairsNaive(lay *Layout) int64 {
	var n [2]int64
	for i := range lay.Routes {
		for _, s := range lay.Routes[i].Segs {
			n[s.Layer-M2]++
		}
	}
	return n[0]*(n[0]-1)/2 + n[1]*(n[1]-1)/2
}

// At returns the nets occupying a routing-layer cell (l must be M2 or M3).
func (lay *Layout) At(l Layer, p geom.Pt) []int32 {
	if !lay.P.Die.Contains(p) {
		return nil
	}
	return lay.Occ[l-M2][p.Y][p.X]
}

// TotalWireLength sums routed lengths over all nets.
func (lay *Layout) TotalWireLength() int {
	total := 0
	for i := range lay.Routes {
		total += lay.Routes[i].Length()
	}
	return total
}

// TotalVias counts vias over all nets.
func (lay *Layout) TotalVias() int {
	total := 0
	for i := range lay.Routes {
		total += len(lay.Routes[i].Vias)
	}
	return total
}

// Route routes every net of the placed circuit.
func Route(p *place.Placement) *Layout {
	lay := &Layout{P: p, Routes: make([]NetRoute, len(p.C.Nets))}
	w, h := p.Die.W(), p.Die.H()
	for li := 0; li < 2; li++ {
		lay.Occ[li] = make([][]([]int32), h)
		for y := 0; y < h; y++ {
			lay.Occ[li][y] = make([][]int32, w)
		}
	}
	for _, n := range p.C.Nets {
		lay.routeNet(n)
	}
	return lay
}

// congestion returns the extra cost of adding one more track through the
// cell on the given routing layer.
func (lay *Layout) congestion(l Layer, pt geom.Pt) int {
	occ := lay.At(l, pt)
	return 3 * len(occ)
}

// pathCost estimates the congestion cost of an L-path corner choice.
func (lay *Layout) pathCost(a, corner, b geom.Pt) int {
	cost := 0
	walk := func(from, to geom.Pt, l Layer) {
		dx := sign(to.X - from.X)
		dy := sign(to.Y - from.Y)
		for p := from; ; p = p.Add(dx, dy) {
			cost += lay.congestion(l, p)
			if p == to {
				break
			}
		}
	}
	// Horizontal runs use M2, vertical runs use M3.
	if a.Y == corner.Y {
		walk(a, corner, M2)
		walk(corner, b, M3)
	} else {
		walk(a, corner, M3)
		walk(corner, b, M2)
	}
	return cost
}

// routeNet builds the net's routed tree.
func (lay *Layout) routeNet(n *netlist.Net) {
	terms := lay.P.NetTerminals(n)
	nr := NetRoute{Net: n}
	if len(terms) < 2 {
		lay.Routes[n.ID] = nr
		return
	}
	// Deduplicate terminals (gates can share locations conceptually).
	terms = dedupPts(terms)
	if len(terms) < 2 {
		lay.Routes[n.ID] = nr
		return
	}

	connected := []geom.Pt{terms[0]}
	remaining := terms[1:]
	for len(remaining) > 0 {
		// Pick the remaining terminal closest to the connected set.
		bi, bj, best := 0, 0, int(^uint(0)>>1)
		for i, r := range remaining {
			for j, c := range connected {
				if d := r.Manhattan(c); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		src := connected[bj]
		dst := remaining[bi]
		remaining = append(remaining[:bi], remaining[bi+1:]...)
		lay.connect(&nr, src, dst)
		connected = append(connected, dst)
	}
	lay.Routes[n.ID] = nr
}

// connect routes one two-point connection with the cheaper L-shape and
// commits it to the occupancy map.
func (lay *Layout) connect(nr *NetRoute, a, b geom.Pt) {
	id := int32(nr.Net.ID)
	if a == b {
		return
	}
	cornerH := geom.Pt{X: b.X, Y: a.Y} // horizontal first
	cornerV := geom.Pt{X: a.X, Y: b.Y} // vertical first
	corner := cornerH
	if lay.pathCost(a, cornerV, b) < lay.pathCost(a, cornerH, b) {
		corner = cornerV
	}

	addSeg := func(from, to geom.Pt) {
		if from == to {
			return
		}
		var l Layer
		if from.Y == to.Y {
			l = M2
		} else {
			l = M3
		}
		seg := Seg{Layer: l, A: minPt(from, to), B: maxPt(from, to)}
		nr.Segs = append(nr.Segs, seg)
		dx, dy := sign(to.X-from.X), sign(to.Y-from.Y)
		li := int(l - M2)
		for p := from; ; p = p.Add(dx, dy) {
			if lay.P.Die.Contains(p) {
				lay.Occ[li][p.Y][p.X] = append(lay.Occ[li][p.Y][p.X], id)
			}
			if p == to {
				break
			}
		}
	}
	addVia := func(at geom.Pt, from, to Layer) {
		// The via can be doubled (made redundant) when the cell is
		// uncongested on both layers.
		red := len(lay.At(M2, at))+len(lay.At(M3, at)) <= 2
		nr.Vias = append(nr.Vias, Via{At: at, From: from, To: to, Redundant: red})
	}

	// Pin vias: terminals live on M1; the first segment's layer decides
	// the stack height.
	firstLayer := func(from, to geom.Pt) Layer {
		if from.Y == to.Y {
			return M2
		}
		return M3
	}
	addSeg(a, corner)
	addSeg(corner, b)
	if a != corner {
		addVia(a, M1, firstLayer(a, corner))
	}
	if corner != a && corner != b {
		addVia(corner, M2, M3)
	}
	if b != corner {
		addVia(b, M1, firstLayer(corner, b))
	}
}

func dedupPts(pts []geom.Pt) []geom.Pt {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Y != pts[j].Y {
			return pts[i].Y < pts[j].Y
		}
		return pts[i].X < pts[j].X
	})
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func minPt(a, b geom.Pt) geom.Pt {
	if a.Y != b.Y {
		if a.Y < b.Y {
			return a
		}
		return b
	}
	if a.X < b.X {
		return a
	}
	return b
}

func maxPt(a, b geom.Pt) geom.Pt {
	if a.Y != b.Y {
		if a.Y < b.Y {
			return b
		}
		return a
	}
	if a.X < b.X {
		return b
	}
	return a
}
