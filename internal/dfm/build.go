package dfm

import (
	"slices"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/route"
)

// Report tallies guideline violations found while building the fault list.
type Report struct {
	PerGuideline map[string]int
	PerCategory  map[Category]int
}

func newReport() *Report {
	return &Report{PerGuideline: map[string]int{}, PerCategory: map[Category]int{}}
}

func (r *Report) hit(g *Guideline) {
	r.PerGuideline[g.ID]++
	r.PerCategory[g.Cat]++
}

// BuildFaults translates DFM guideline violations into the target fault set
// F for the placed-and-routed circuit: cell-aware internal faults from the
// library profile, and external stuck-at / transition / bridging faults
// from the routed layout. The result is deterministic for a given layout.
func BuildFaults(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report) {
	l, rep, _ := BuildFaultsStats(c, lay, prof)
	return l, rep
}

// BuildFaultsStats is BuildFaults plus the bridge scan's candidate-pair
// accounting.
func BuildFaultsStats(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report, ScanStats) {
	b := &builder{
		c:    c,
		lay:  lay,
		gs:   Guidelines(),
		list: &fault.List{},
		rep:  newReport(),
		acc:  newWinAcc(len(c.Nets)),
	}
	b.internal(prof)
	b.vias()
	b.bridges()
	b.segments()
	b.densities()
	b.stats.BridgePairsNaive = route.SegPairsNaive(lay)
	return b.list, b.rep, b.stats
}

// ScanStats reports how many candidate net pairs the bridge scan examined
// (at most two per occupied cell: same-cell crowding and the
// right-neighbor pitch check) against BridgePairsNaive, the all-pairs
// segment-proximity count a windowless checker would examine. The flow
// publishes both as obs counters.
type ScanStats struct {
	BridgePairs, BridgePairsNaive int64
}

// PairReduction returns BridgePairsNaive / BridgePairs (0 when either side
// is unknown): how many candidate pairs the occupancy-grid scan saves over
// a naive all-pairs check.
func (s ScanStats) PairReduction() float64 {
	if s.BridgePairs <= 0 || s.BridgePairsNaive <= 0 {
		return 0
	}
	return float64(s.BridgePairsNaive) / float64(s.BridgePairs)
}

// netRule / pinRule / pairRule key the per-phase deduplication maps.
type netRule struct {
	net int
	gid string
}
type pinRule struct {
	net, gate, pin int
	gid            string
}
type pairRule struct {
	a, b int
	gid  string
}

// builder assembles the fault list and report from per-phase violation
// triggers.
type builder struct {
	c     *netlist.Circuit
	lay   *route.Layout
	gs    []*Guideline
	list  *fault.List
	rep   *Report
	stats ScanStats
	// acc is the density-window accumulator shared across every window
	// and guideline evaluation of this build.
	acc *winAcc
}

// internal adds every instance's cell-aware defects (layout-independent).
func (b *builder) internal(prof *LibraryProfile) {
	byID := map[string]*Guideline{}
	for _, g := range b.gs {
		byID[g.ID] = g
	}
	for _, g := range b.c.Gates {
		for i := range prof.PerCell[g.Type.Index] {
			cd := &prof.PerCell[g.Type.Index][i]
			b.list.Add(&fault.Fault{
				Model:     fault.CellAware,
				Internal:  true,
				Gate:      g,
				Defect:    cd.Defect,
				Behavior:  cd.Behavior,
				Guideline: cd.Guideline,
			})
			b.rep.hit(byID[cd.Guideline])
		}
	}
}

// vias adds external via opens -> transition faults on the net. An open at
// a *pin* via (M1 stack) disconnects a single sink, so it becomes a branch
// fault at that gate input; other vias break the stem.
func (b *builder) vias() {
	viaHits := map[netRule]bool{}
	pinHits := map[pinRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		netLen := r.Length()
		for _, v := range r.Vias {
			for _, g := range b.gs {
				if g.CheckVia == nil || !g.CheckVia(v, netLen) {
					continue
				}
				b.rep.hit(g)
				// Pin vias at a sink location: branch faults.
				if v.From == route.M1 {
					if bg, bp, ok := sinkAt(b.lay, n, v.At); ok {
						key := pinRule{n.ID, bg.ID, bp, g.ID}
						if pinHits[key] {
							continue
						}
						pinHits[key] = true
						for val := uint8(0); val <= 1; val++ {
							b.list.Add(&fault.Fault{
								Model:      fault.Transition,
								Net:        n,
								Value:      val,
								BranchGate: bg,
								BranchPin:  bp,
								Guideline:  g.ID,
							})
						}
						continue
					}
				}
				key := netRule{n.ID, g.ID}
				if viaHits[key] {
					continue
				}
				viaHits[key] = true
				for val := uint8(0); val <= 1; val++ {
					b.list.Add(&fault.Fault{
						Model:     fault.Transition,
						Net:       n,
						Value:     val,
						Guideline: g.ID,
					})
				}
			}
		}
	}
}

// bridges walks every cell of both routing layers in scan order (layer,
// then row, then column). In each cell, same-cell crowding is checked
// first, then the minimum pitch to the right neighbor, each over the
// guidelines in deck order. A trigger adds a bridge fault in each
// direction, once per (net pair, guideline).
func (b *builder) bridges() {
	hits := map[pairRule]bool{}
	apply := func(g *Guideline, aID, bID int) {
		if aID > bID {
			aID, bID = bID, aID
		}
		key := pairRule{aID, bID, g.ID}
		if hits[key] {
			return
		}
		hits[key] = true
		b.rep.hit(g)
		na, nb := b.c.Nets[aID], b.c.Nets[bID]
		b.list.Add(&fault.Fault{Model: fault.Bridge, Net: na, Other: nb, Guideline: g.ID})
		b.list.Add(&fault.Fault{Model: fault.Bridge, Net: nb, Other: na, Guideline: g.ID})
	}
	for li := 0; li < 2; li++ {
		layer := route.Layer(li) + route.M2
		for y, row := range b.lay.Occ[li] {
			for x, occ := range row {
				if len(occ) >= 2 {
					if a, bid, ok := firstDistinct(occ); ok {
						b.stats.BridgePairs++
						for _, g := range b.gs {
							if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), false) {
								apply(g, a, bid)
							}
						}
					}
				}
				if len(occ) >= 1 {
					if nb := neighborOcc(b.lay, li, x, y); nb >= 0 && nb != int(occ[0]) {
						b.stats.BridgePairs++
						for _, g := range b.gs {
							if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), true) {
								apply(g, int(occ[0]), nb)
							}
						}
					}
				}
			}
		}
	}
}

// segments adds external long-segment opens -> transition faults.
func (b *builder) segments() {
	segHits := map[netRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		for _, s := range r.Segs {
			for _, g := range b.gs {
				if g.CheckSegment == nil || !g.CheckSegment(s) {
					continue
				}
				key := netRule{n.ID, g.ID}
				if segHits[key] {
					continue
				}
				segHits[key] = true
				b.rep.hit(g)
				for val := uint8(0); val <= 1; val++ {
					b.list.Add(&fault.Fault{
						Model:     fault.Transition,
						Net:       n,
						Value:     val,
						Guideline: g.ID,
					})
				}
			}
		}
	}
}

// densities walks every density guideline's window grid in deck order
// (guideline, then layer, then window). A window whose occupied-cell share
// trips the guideline adds stuck-at faults on its dominant net: the net
// with the most cells in the window, smallest ID on ties.
func (b *builder) densities() {
	densHits := map[netRule]bool{}
	for _, g := range b.gs {
		if g.CheckDensity == nil {
			continue
		}
		for li := 0; li < 2; li++ {
			layer := route.Layer(li) + route.M2
			geom.Windows(b.lay.P.Die, g.Window, g.Window, func(w geom.Rect) {
				used := 0
				b.acc.reset()
				for y := w.Y0; y < w.Y1; y++ {
					for x := w.X0; x < w.X1; x++ {
						occ := b.lay.Occ[li][y][x]
						if len(occ) > 0 {
							used++
						}
						for _, id := range occ {
							b.acc.add(id)
						}
					}
				}
				if !g.CheckDensity(layer, float64(used)/float64(w.Area())) {
					return
				}
				dom := b.acc.dominant()
				if dom < 0 {
					return
				}
				key := netRule{dom, g.ID}
				if densHits[key] {
					return
				}
				densHits[key] = true
				b.rep.hit(g)
				n := b.c.Nets[dom]
				for val := uint8(0); val <= 1; val++ {
					b.list.Add(&fault.Fault{
						Model:     fault.StuckAt,
						Net:       n,
						Value:     val,
						Guideline: g.ID,
					})
				}
			})
		}
	}
}

// winAcc is the shared density-window accumulator: per-net cell counts
// plus the list of touched net IDs, reused across every window and
// guideline evaluation of a build instead of allocating a fresh map per
// window per guideline.
type winAcc struct {
	counts  []int32
	touched []int32
}

func newWinAcc(nets int) *winAcc {
	return &winAcc{counts: make([]int32, nets)}
}

func (a *winAcc) add(id int32) {
	if a.counts[id] == 0 {
		a.touched = append(a.touched, id)
	}
	a.counts[id]++
}

func (a *winAcc) reset() {
	for _, id := range a.touched {
		a.counts[id] = 0
	}
	a.touched = a.touched[:0]
}

// dominant picks the net with the most cells in the window, smallest ID on
// ties. -1 when empty.
func (a *winAcc) dominant() int {
	if len(a.touched) == 0 {
		return -1
	}
	slices.Sort(a.touched)
	best, bestN := -1, int32(0)
	for _, id := range a.touched {
		if a.counts[id] > bestN {
			best, bestN = int(id), a.counts[id]
		}
	}
	return best
}

// sinkAt finds the sink pin of net n placed at point pt (the pin the via
// serves), if any.
func sinkAt(lay *route.Layout, n *netlist.Net, pt geom.Pt) (*netlist.Gate, int, bool) {
	for _, p := range n.Fanout {
		if lay.P.Loc[p.Gate.ID] == pt {
			return p.Gate, p.Pin, true
		}
	}
	return nil, 0, false
}

// firstDistinct returns the first two distinct net IDs in the occupancy
// list.
func firstDistinct(occ []int32) (int, int, bool) {
	for i := 1; i < len(occ); i++ {
		if occ[i] != occ[0] {
			return int(occ[0]), int(occ[i]), true
		}
	}
	return 0, 0, false
}

// neighborOcc returns the first occupant of the cell to the right (same
// layer), or -1.
func neighborOcc(lay *route.Layout, li, x, y int) int {
	if x+1 >= len(lay.Occ[li][y]) {
		return -1
	}
	occ := lay.Occ[li][y][x+1]
	if len(occ) == 0 {
		return -1
	}
	return int(occ[0])
}
