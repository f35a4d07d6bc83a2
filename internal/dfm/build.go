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

// newReport fills a report from a per-guideline tally (hits[i] counts the
// violations of gs[i]); a guideline without violations gets no entry.
func newReport(gs []*Guideline, hits []int) *Report {
	r := &Report{PerGuideline: map[string]int{}, PerCategory: map[Category]int{}}
	for i, n := range hits {
		if n > 0 {
			r.PerGuideline[gs[i].ID] += n
			r.PerCategory[gs[i].Cat] += n
		}
	}
	return r
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
	gs := Guidelines()
	b := &builder{
		c:    c,
		lay:  lay,
		gs:   gs,
		hits: make([]int, len(gs)),
		acc:  newWinAcc(len(c.Nets)),
	}
	b.list = InternalFaults(c, prof)
	b.tallyInternal(prof)
	b.vias()
	b.bridges()
	b.segments()
	b.densities()
	b.stats.BridgePairsNaive = route.SegPairsNaive(lay)
	return b.list, newReport(gs, b.hits), b.stats
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

// netRule / pinRule / pairRule key the per-phase deduplication maps; g is
// the guideline's position in the deck.
type netRule struct {
	net, g int
}
type pinRule struct {
	net, gate, pin, g int
}
type pairRule struct {
	a, b, g int
}

// builder assembles the fault list and the per-guideline violation tally
// from per-phase violation triggers.
type builder struct {
	c     *netlist.Circuit
	lay   *route.Layout
	gs    []*Guideline
	list  *fault.List
	hits  []int // hits[i] counts the violations of gs[i]
	stats ScanStats
	// acc is the density-window accumulator shared across every window
	// and guideline evaluation of this build.
	acc *winAcc
	// arena backs the external faults.
	arena faultArena
}

// InternalFaults builds the internal-only fault list of a netlist: every
// instance's cell-aware defects from the library profile, in gate order.
// It needs no layout, since internal faults do not depend on placement and
// routing, and equals the internal prefix of BuildFaults' list.
func InternalFaults(c *netlist.Circuit, prof *LibraryProfile) *fault.List {
	n := 0
	for _, g := range c.Gates {
		n += len(prof.PerCell[g.Type.Index])
	}
	l := &fault.List{Faults: make([]*fault.Fault, 0, n)}
	var arena faultArena
	for _, g := range c.Gates {
		for i := range prof.PerCell[g.Type.Index] {
			cd := &prof.PerCell[g.Type.Index][i]
			arena.add(l, fault.Fault{
				Model:     fault.CellAware,
				Internal:  true,
				Gate:      g,
				Defect:    cd.Defect,
				Behavior:  cd.Behavior,
				Guideline: cd.Guideline,
			})
		}
	}
	return l
}

// tallyInternal counts the internal faults' violations. Every instance of
// a cell type carries each of the type's profile entries once, so each
// entry's guideline is looked up once per cell type and credited with the
// type's instance count.
func (b *builder) tallyInternal(prof *LibraryProfile) {
	uses := make([]int, len(prof.PerCell))
	for _, g := range b.c.Gates {
		uses[g.Type.Index]++
	}
	pos := make(map[string]int, len(b.gs))
	for i, g := range b.gs {
		pos[g.ID] = i
	}
	for ci, defects := range prof.PerCell {
		if uses[ci] == 0 {
			continue
		}
		for _, cd := range defects {
			b.hits[pos[cd.Guideline]] += uses[ci]
		}
	}
}

// faultChunk is the number of faults one backing array holds: 128 faults,
// 18 KiB, a small object for the Go runtime. One array per fault list (a
// large object of up to a few MiB for every candidate the sweep screens)
// raised perfbench sweep's rss_p90_mb by about 2 MiB; 128-fault chunks
// did not.
const faultChunk = 128

// faultArena hands out faults from backing arrays of faultChunk faults, so
// a list of n faults costs n/faultChunk allocations instead of n.
type faultArena []fault.Fault

// add appends a copy of f, taken from the arena, to l.
func (a *faultArena) add(l *fault.List, f fault.Fault) {
	if len(*a) == 0 {
		*a = make([]fault.Fault, faultChunk)
	}
	p := &(*a)[0]
	*a = (*a)[1:]
	*p = f
	l.Add(p)
}

// add appends an external fault to the builder's list.
func (b *builder) add(f fault.Fault) { b.arena.add(b.list, f) }

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
			for gi, g := range b.gs {
				if g.CheckVia == nil || !g.CheckVia(v, netLen) {
					continue
				}
				b.hits[gi]++
				// Pin vias at a sink location: branch faults.
				if v.From == route.M1 {
					if bg, bp, ok := sinkAt(b.lay, n, v.At); ok {
						key := pinRule{n.ID, bg.ID, bp, gi}
						if pinHits[key] {
							continue
						}
						pinHits[key] = true
						for val := uint8(0); val <= 1; val++ {
							b.add(fault.Fault{
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
				key := netRule{n.ID, gi}
				if viaHits[key] {
					continue
				}
				viaHits[key] = true
				for val := uint8(0); val <= 1; val++ {
					b.add(fault.Fault{
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
	apply := func(gi, aID, bID int) {
		if aID > bID {
			aID, bID = bID, aID
		}
		key := pairRule{aID, bID, gi}
		if hits[key] {
			return
		}
		hits[key] = true
		b.hits[gi]++
		na, nb := b.c.Nets[aID], b.c.Nets[bID]
		id := b.gs[gi].ID
		b.add(fault.Fault{Model: fault.Bridge, Net: na, Other: nb, Guideline: id})
		b.add(fault.Fault{Model: fault.Bridge, Net: nb, Other: na, Guideline: id})
	}
	for li := 0; li < 2; li++ {
		layer := route.Layer(li) + route.M2
		for y, row := range b.lay.Occ[li] {
			for x, occ := range row {
				if len(occ) >= 2 {
					if a, bid, ok := firstDistinct(occ); ok {
						b.stats.BridgePairs++
						for gi, g := range b.gs {
							if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), false) {
								apply(gi, a, bid)
							}
						}
					}
				}
				if len(occ) >= 1 {
					if nb := neighborOcc(b.lay, li, x, y); nb >= 0 && nb != int(occ[0]) {
						b.stats.BridgePairs++
						for gi, g := range b.gs {
							if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), true) {
								apply(gi, int(occ[0]), nb)
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
			for gi, g := range b.gs {
				if g.CheckSegment == nil || !g.CheckSegment(s) {
					continue
				}
				key := netRule{n.ID, gi}
				if segHits[key] {
					continue
				}
				segHits[key] = true
				b.hits[gi]++
				for val := uint8(0); val <= 1; val++ {
					b.add(fault.Fault{
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
	for gi, g := range b.gs {
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
				key := netRule{dom, gi}
				if densHits[key] {
					return
				}
				densHits[key] = true
				b.hits[gi]++
				n := b.c.Nets[dom]
				for val := uint8(0); val <= 1; val++ {
					b.add(fault.Fault{
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
