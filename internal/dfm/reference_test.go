package dfm

import (
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/place"
	"dfmresyn/internal/route"
)

// refBuild is the fault-universe build with one heap allocation per fault,
// a string-keyed guideline lookup per internal fault and the report's maps
// incremented per violation: the reference BuildFaultsStats is checked
// against.
func refBuild(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report) {
	b := &refBuilder{
		c:    c,
		lay:  lay,
		gs:   Guidelines(),
		list: &fault.List{},
		rep:  &Report{PerGuideline: map[string]int{}, PerCategory: map[Category]int{}},
		acc:  newWinAcc(len(c.Nets)),
	}
	b.internal(prof)
	b.vias()
	b.bridges()
	b.segments()
	b.densities()
	return b.list, b.rep
}

func (r *Report) refHit(g *Guideline) {
	r.PerGuideline[g.ID]++
	r.PerCategory[g.Cat]++
}

// refNetRule / refPinRule / refPairRule key the per-phase deduplication maps.
type refNetRule struct {
	net int
	gid string
}
type refPinRule struct {
	net, gate, pin int
	gid            string
}
type refPairRule struct {
	a, b int
	gid  string
}

// refBuilder assembles the fault list and report from per-phase violation
// triggers.
type refBuilder struct {
	c     *netlist.Circuit
	lay   *route.Layout
	gs    []*Guideline
	list  *fault.List
	rep   *Report
	stats ScanStats
	acc   *winAcc
}

// internal adds every instance's cell-aware defects (layout-independent).
func (b *refBuilder) internal(prof *LibraryProfile) {
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
			b.rep.refHit(byID[cd.Guideline])
		}
	}
}

// vias adds external via opens -> transition faults on the net. An open at
// a *pin* via (M1 stack) disconnects a single sink, so it becomes a branch
// fault at that gate input; other vias break the stem.
func (b *refBuilder) vias() {
	viaHits := map[refNetRule]bool{}
	pinHits := map[refPinRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		netLen := r.Length()
		for _, v := range r.Vias {
			for _, g := range b.gs {
				if g.CheckVia == nil || !g.CheckVia(v, netLen) {
					continue
				}
				b.rep.refHit(g)
				// Pin vias at a sink location: branch faults.
				if v.From == route.M1 {
					if bg, bp, ok := sinkAt(b.lay, n, v.At); ok {
						key := refPinRule{n.ID, bg.ID, bp, g.ID}
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
				key := refNetRule{n.ID, g.ID}
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
func (b *refBuilder) bridges() {
	hits := map[refPairRule]bool{}
	apply := func(g *Guideline, aID, bID int) {
		if aID > bID {
			aID, bID = bID, aID
		}
		key := refPairRule{aID, bID, g.ID}
		if hits[key] {
			return
		}
		hits[key] = true
		b.rep.refHit(g)
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
func (b *refBuilder) segments() {
	segHits := map[refNetRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		for _, s := range r.Segs {
			for _, g := range b.gs {
				if g.CheckSegment == nil || !g.CheckSegment(s) {
					continue
				}
				key := refNetRule{n.ID, g.ID}
				if segHits[key] {
					continue
				}
				segHits[key] = true
				b.rep.refHit(g)
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
func (b *refBuilder) densities() {
	densHits := map[refNetRule]bool{}
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
				key := refNetRule{dom, g.ID}
				if densHits[key] {
					return
				}
				densHits[key] = true
				b.rep.refHit(g)
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

// TestBuildMatchesReference: the fault list (every field of every fault,
// in order) and the report of BuildFaultsStats equal the reference build's
// on the twelve paper circuits and synth1k, and InternalFaults equals the
// list's internal prefix.
func TestBuildMatchesReference(t *testing.T) {
	names := append(append([]string(nil), bench.Names...), "synth1k")
	if testing.Short() {
		names = []string{"sparc_spu", "tv80"}
	}
	prof := ProfileLibrary(lib)
	for _, name := range names {
		c := bench.MustBuild(name, lib)
		p, err := place.Place(c, 0.70, 1)
		if err != nil {
			t.Fatal(err)
		}
		lay := route.Route(p)
		got, rep, _ := BuildFaultsStats(c, lay, prof)
		want, wantRep := refBuild(c, lay, prof)
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d faults, reference %d", name, got.Len(), want.Len())
		}
		internal := 0
		for i, f := range got.Faults {
			if *f != *want.Faults[i] {
				t.Fatalf("%s: fault %d is %+v, reference %+v", name, i, *f, *want.Faults[i])
			}
			if f.Internal {
				internal++
			}
		}
		if !mapsEqual(rep.PerGuideline, wantRep.PerGuideline) || !mapsEqual(rep.PerCategory, wantRep.PerCategory) {
			t.Errorf("%s: report %+v, reference %+v", name, *rep, *wantRep)
		}
		in := InternalFaults(c, prof)
		if in.Len() != internal || internal == 0 {
			t.Fatalf("%s: InternalFaults lists %d faults, the build %d internal ones", name, in.Len(), internal)
		}
		for i, f := range in.Faults {
			if *f != *want.Faults[i] {
				t.Fatalf("%s: internal fault %d is %+v, reference %+v", name, i, *f, *want.Faults[i])
			}
		}
	}
}

func mapsEqual[K comparable](a, b map[K]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
