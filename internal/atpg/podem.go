// Package atpg implements automatic test pattern generation for the DFM
// fault universe: a PODEM test generator with five-valued logic,
// backtrack-limited complete search (providing proofs of undetectability),
// a random-pattern bootstrap phase, and reverse-order test-set compaction.
package atpg

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/library"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// SearchOutcome is the result of one complete PODEM search.
type SearchOutcome uint8

// Outcomes of a PODEM search.
const (
	FoundTest SearchOutcome = iota
	ProvenImpossible
	LimitExceeded
)

// podem is one complete-search engine instance over a circuit.
//
// Every search is bounded by its cone (see buildCone): implication, the
// detection check and the free-PI choice visit only the cone's gates, nets
// and PIs, and the D-frontier scan only the gates driving region nets.
// Values of nets outside the cone are left over from earlier searches and
// are never read. Implication is event-driven: a search's first implication
// evaluates the whole cone, and every later one only the cone gates whose
// fanin values the PIs set since then have changed (see imply).
type podem struct {
	c      *netlist.Circuit
	order  []*netlist.Gate
	levels []int
	pos    []int32 // gate ID -> position in order
	piIdx  []int32 // net ID -> position in c.PIs, -1 for other nets

	vals  []logic.V5 // per net, current implied values
	good  []logic.V5 // per net, good-circuit ternary values (0/1/X as V5)
	piVal []int8     // per PI position: -1 unassigned, else 0/1

	// t is the current search's detection target; nil makes the search a
	// justification, which injects nothing and succeeds once every
	// condition holds. conds are the good values the search must set.
	t          *fault.Target
	conds      []fault.Cond
	targets    fault.Targets
	backtracks int
	btTotal    int // cumulative backtracks across every search (telemetry)
	limit      int

	// The current search's cone: region is the site's structural fanout
	// region, regionGates the gates driving region nets in order, cone the
	// gates of the transitive fanin of the region, the conditions and the
	// bridge source in order, conePIs its PI positions ascending and
	// conePOs its PO nets. coneIdx maps a gate ID to the gate's index in
	// cone (-1 outside it), and inRegion has bit k set when cone[k] drives
	// a region net.
	region      []*netlist.Net
	regionGates []*netlist.Gate
	cone        []*netlist.Gate
	coneIdx     []int32
	inRegion    []uint64
	conePIs     []int
	conePOs     []*netlist.Net

	// changed lists the PI positions set since the last implication, and
	// goodDirty and valsDirty are bitsets over cone indices: the gates the
	// running implication must re-evaluate in its good and faulty pass.
	changed   []int
	goodDirty []uint64
	valsDirty []uint64

	// mark is an epoch-stamped visited set: mark[n] == epoch means net n
	// was reached by the current sweep, so a sweep starts with one
	// increment instead of clearing a per-net array.
	mark  []uint32
	epoch uint32

	// reusable scratch
	queue    []*netlist.Net
	frontier []*netlist.Gate
	gpos     []int32
	stack    []decision // the current search's PI decisions

	// v5tab holds each gate's five-valued evaluation table, by gate ID;
	// gates of one cell share the cell's table.
	v5tab []*logic.V5Table
}

func newPodem(c *netlist.Circuit, order []*netlist.Gate, levels []int, limit int) *podem {
	words := (len(c.Gates) + 63) >> 6
	p := &podem{
		c:         c,
		order:     order,
		levels:    levels,
		pos:       make([]int32, len(c.Gates)),
		piIdx:     make([]int32, len(c.Nets)),
		vals:      make([]logic.V5, len(c.Nets)),
		good:      make([]logic.V5, len(c.Nets)),
		piVal:     make([]int8, len(c.PIs)),
		limit:     limit,
		coneIdx:   make([]int32, len(c.Gates)),
		inRegion:  make([]uint64, words),
		goodDirty: make([]uint64, words),
		valsDirty: make([]uint64, words),
		mark:      make([]uint32, len(c.Nets)),
		v5tab:     make([]*logic.V5Table, len(c.Gates)),
	}
	for i, g := range order {
		p.pos[g.ID] = int32(i)
	}
	for i := range p.coneIdx {
		p.coneIdx[i] = -1
	}
	for i := range p.piIdx {
		p.piIdx[i] = -1
	}
	for i, n := range c.PIs {
		p.piIdx[n.ID] = int32(i)
	}
	byCell := make(map[*library.Cell]*logic.V5Table)
	for _, g := range c.Gates {
		t, ok := byCell[g.Type]
		if !ok {
			t = g.Type.TT.BuildV5Table()
			byCell[g.Type] = t
		}
		p.v5tab[g.ID] = t
	}
	return p
}

// newEpoch starts a sweep over mark. On the (rare) wrap-around the stamps
// are cleared so that no stale stamp can equal a reused epoch.
func (p *podem) newEpoch() uint32 {
	p.epoch++
	if p.epoch == 0 {
		clear(p.mark)
		p.epoch = 1
	}
	return p.epoch
}

// buildCone computes the current search's cone from the target and
// conditions. The region is every net structurally reachable from the site
// net; every net that can carry a fault effect lies in it. The cone adds the
// transitive fanin of the region (which covers the host and branch gate
// inputs, since those gates drive region nets), of every condition net
// (extra conditions included) and of the bridge aggressor. The cone is
// closed under fanin, so implying its gates in order gives its nets exactly
// the values a whole-circuit implication would, and every net the search
// reads lies in it.
func (p *podem) buildCone() {
	for _, g := range p.cone {
		p.coneIdx[g.ID] = -1
	}
	p.region = p.region[:0]
	if p.t != nil {
		site := p.t.Site()
		ep := p.newEpoch()
		p.mark[site.ID] = ep
		p.region = append(p.region, site)
		for i := 0; i < len(p.region); i++ {
			for _, pin := range p.region[i].Fanout {
				if out := pin.Gate.Out; p.mark[out.ID] != ep {
					p.mark[out.ID] = ep
					p.region = append(p.region, out)
				}
			}
		}
	}

	ep := p.newEpoch()
	stack := p.queue[:0]
	push := func(n *netlist.Net) {
		if p.mark[n.ID] != ep {
			p.mark[n.ID] = ep
			stack = append(stack, n)
		}
	}
	for _, n := range p.region {
		push(n)
	}
	for _, c := range p.conds {
		push(c.Net)
	}
	if p.t != nil && p.t.Effect == fault.EffectBridge {
		push(p.t.Other)
	}
	gpos := p.gpos[:0]
	p.conePIs = p.conePIs[:0]
	p.conePOs = p.conePOs[:0]
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsPO {
			p.conePOs = append(p.conePOs, n)
		}
		if i := p.piIdx[n.ID]; i >= 0 {
			p.conePIs = append(p.conePIs, int(i))
		}
		if g := n.Driver; g != nil {
			gpos = append(gpos, p.pos[g.ID])
			for _, in := range g.Fanin {
				push(in)
			}
		}
	}
	slices.Sort(gpos)
	slices.Sort(p.conePIs)
	p.cone = p.cone[:0]
	for _, i := range gpos {
		p.cone = append(p.cone, p.order[i])
	}
	gpos = gpos[:0]
	for _, n := range p.region {
		if g := n.Driver; g != nil {
			gpos = append(gpos, p.pos[g.ID])
		}
	}
	slices.Sort(gpos)
	p.regionGates = p.regionGates[:0]
	for _, i := range gpos {
		p.regionGates = append(p.regionGates, p.order[i])
	}
	p.queue, p.gpos = stack, gpos
	p.indexCone()
}

// indexCone numbers the cone's gates in coneIdx and marks the region gates
// among them in inRegion.
func (p *podem) indexCone() {
	for k, g := range p.cone {
		p.coneIdx[g.ID] = int32(k)
	}
	clear(p.inRegion[:(len(p.cone)+63)>>6])
	for _, g := range p.regionGates {
		k := p.coneIdx[g.ID]
		p.inRegion[k>>6] |= 1 << uint(k&63)
	}
}

type decision struct {
	pi      int
	val     uint8
	flipped bool
}

// search runs a complete PODEM search for the configured target and
// conditions. On FoundTest, the returned vector has every PI specified
// (unassigned PIs are filled from rng, its only read). The first
// implication covers the whole cone; after it, every decision, flip and
// release goes through set and is implied event-driven.
func (p *podem) search(rng *rand.Rand) (SearchOutcome, []uint8) {
	for i := range p.piVal {
		p.piVal[i] = -1
	}
	p.backtracks = 0
	p.buildCone()
	p.stack = p.stack[:0]

	for p.implyCone(); ; p.imply() {
		if p.detected() {
			return FoundTest, p.fillVector(rng)
		}
		objNet, objVal, ok := p.objective()
		if ok {
			pi, val, ok2 := p.backtrace(objNet, objVal)
			if !ok2 {
				// The good-value backtrace fails when the objective
				// net's good value is already known and only the
				// faulty side is unresolved (propagation
				// objectives). Walk the composite-value X chain to
				// a PI that actually feeds the unresolved cone.
				pi, ok2 = p.valsBacktrace(objNet)
				val = objVal
			}
			if !ok2 {
				// Last resort: any unassigned PI in the support of
				// the region the fault effect can still traverse.
				// Completeness is preserved because objective()
				// still reports the branch as live.
				pi, val, ok2 = p.firstFreePI()
			}
			if ok2 {
				p.decide(pi, val)
				continue
			}
		}
		if !p.backtrack() {
			return ProvenImpossible, nil
		}
		if p.backtracks > p.limit {
			return LimitExceeded, nil
		}
	}
}

// decide assigns PI position pi the value val as a new decision.
func (p *podem) decide(pi int, val uint8) {
	p.stack = append(p.stack, decision{pi: pi, val: val})
	p.set(pi, int8(val))
}

// backtrack releases every flipped decision on top of the stack and flips
// the one below them. It reports false when no decision is left to flip:
// the search space is exhausted.
func (p *podem) backtrack() bool {
	for len(p.stack) > 0 {
		top := &p.stack[len(p.stack)-1]
		if !top.flipped {
			top.flipped = true
			top.val ^= 1
			p.set(top.pi, int8(top.val))
			p.backtracks++
			p.btTotal++
			return true
		}
		p.set(top.pi, -1)
		p.stack = p.stack[:len(p.stack)-1]
	}
	return false
}

// set assigns PI position i the value v (-1 releases it) and records the
// PI for the next implication. After a search's first implication every
// assignment goes through set, or imply would not see it.
func (p *podem) set(i int, v int8) {
	p.piVal[i] = v
	p.changed = append(p.changed, i)
}

// piGood is the good value of a PI assigned 0 or 1, or free (-1).
func piGood(v int8) logic.V5 {
	switch v {
	case 0:
		return logic.Zero
	case 1:
		return logic.One
	}
	return logic.X
}

// implyCone performs five-valued forward implication over the whole cone
// from the current PI assignment, maintaining both the pure-good ternary
// values (p.good) and the faulty-circuit composite values (p.vals). It is a
// search's first implication; imply brings the values up to date after it.
//
// Errors arise only in the region, so every cone net outside it has a
// composite value equal to its good value; only the region's gates and a
// PI site are evaluated in the faulty circuit.
func (p *podem) implyCone() {
	// Good pass: exact ternary good values for every cone net. The faulty
	// pass needs these complete (a bridge source may lie later in
	// topological order than its victim).
	for _, i := range p.conePIs {
		n := p.c.PIs[i]
		v := piGood(p.piVal[i])
		p.good[n.ID], p.vals[n.ID] = v, v
	}
	for _, g := range p.cone {
		v := p.evalGood(g)
		p.good[g.Out.ID], p.vals[g.Out.ID] = v, v
	}
	// Faulty pass: composite values with the target's effect applied.
	if p.t != nil {
		if site := p.t.Site(); site.IsPI {
			p.vals[site.ID] = p.injectStem(site, p.good[site.ID])
		}
	}
	for _, g := range p.regionGates {
		p.vals[g.Out.ID] = p.evalVals(g)
	}
	p.changed = p.changed[:0]
}

// imply brings the implication up to date with the PIs set since the last
// one. Each pass evaluates only the cone gates whose fanin values changed,
// in cone order, so each gate once and after all of its fanins:
//
//   - the good pass re-evaluates the gates with a fanin whose good value
//     changed; outside the region a net's composite value follows its good
//     value;
//   - the faulty pass re-evaluates the region gates the good pass visited
//     (a cell-aware host among them when one of its inputs' good values
//     changed) and those with a fanin whose composite value changed. It
//     re-injects the bridge victim when the aggressor's good value changed.
func (p *podem) imply() {
	t := p.t
	var site *netlist.Net
	if t != nil {
		site = t.Site()
	}
	bridge := t != nil && t.Effect == fault.EffectBridge
	var agg logic.V5 // the bridge aggressor's good value before this implication
	if bridge {
		agg = p.good[t.Other.ID]
	}
	reinject := false // the site is a PI whose composite value must be recomputed
	for _, i := range p.changed {
		n := p.c.PIs[i]
		v := piGood(p.piVal[i])
		if v == p.good[n.ID] {
			continue
		}
		p.good[n.ID] = v
		p.touch(n, p.goodDirty)
		if n == site {
			reinject = true
		} else {
			p.vals[n.ID] = v
		}
	}
	p.changed = p.changed[:0]
	// A dirty gate's readers lie later in cone order, so one ascending
	// sweep over the bitset, clearing each bit before its gate is
	// evaluated, visits every gate marked on the way.
	words := (len(p.cone) + 63) >> 6
	for w := 0; w < words; w++ {
		for p.goodDirty[w] != 0 {
			bit := uint(bits.TrailingZeros64(p.goodDirty[w]))
			p.goodDirty[w] &^= 1 << bit
			region := p.inRegion[w]>>bit&1 != 0
			if region {
				p.valsDirty[w] |= 1 << bit
			}
			g := p.cone[w<<6|int(bit)]
			if v := p.evalGood(g); v != p.good[g.Out.ID] {
				p.good[g.Out.ID] = v
				p.touch(g.Out, p.goodDirty)
				if !region {
					p.vals[g.Out.ID] = v
				}
			}
		}
	}

	if bridge && p.good[t.Other.ID] != agg {
		if d := site.Driver; d != nil {
			k := p.coneIdx[d.ID]
			p.valsDirty[k>>6] |= 1 << uint(k&63)
		} else {
			reinject = true
		}
	}
	if reinject {
		if v := p.injectStem(site, p.good[site.ID]); v != p.vals[site.ID] {
			p.vals[site.ID] = v
			p.touch(site, p.valsDirty)
		}
	}
	for w := 0; w < words; w++ {
		for p.valsDirty[w] != 0 {
			bit := uint(bits.TrailingZeros64(p.valsDirty[w]))
			p.valsDirty[w] &^= 1 << bit
			g := p.cone[w<<6|int(bit)]
			if v := p.evalVals(g); v != p.vals[g.Out.ID] {
				p.vals[g.Out.ID] = v
				p.touch(g.Out, p.valsDirty)
			}
		}
	}
}

// touch marks in dirty every cone gate that reads net n.
func (p *podem) touch(n *netlist.Net, dirty []uint64) {
	for _, pin := range n.Fanout {
		if k := p.coneIdx[pin.Gate.ID]; k >= 0 {
			dirty[k>>6] |= 1 << uint(k&63)
		}
	}
}

// evalGood evaluates gate g's good output from its fanins' good values.
func (p *podem) evalGood(g *netlist.Gate) logic.V5 {
	var buf [8]logic.V5
	in := buf[:len(g.Fanin)]
	for i, n := range g.Fanin {
		in[i] = p.good[n.ID]
	}
	return p.v5tab[g.ID].Eval(in)
}

// evalVals evaluates gate g's composite output from its fanins' composite
// values, with the target's effect applied.
func (p *podem) evalVals(g *netlist.Gate) logic.V5 {
	var buf [8]logic.V5
	in := buf[:len(g.Fanin)]
	for i, n := range g.Fanin {
		in[i] = p.vals[n.ID]
	}
	var v logic.V5
	switch t := p.t; {
	case t == nil || t.Gate != g:
		v = p.v5tab[g.ID].Eval(in)
	case t.Effect == fault.EffectHost:
		v = p.hostEval(g)
	default:
		// The branch input sees the forced value in the faulty circuit;
		// its good projection is the net's good value.
		in[t.Pin] = force(in[t.Pin], t.Val)
		v = p.v5tab[g.ID].Eval(in)
	}
	return p.injectStem(g.Out, v)
}

// force returns v with its faulty value replaced by val, or X when v's good
// value is unknown.
func force(v logic.V5, val uint8) logic.V5 {
	gb, known := v.Good()
	if !known {
		return logic.X
	}
	return logic.FromBits(gb, val)
}

// injectStem applies a stem-forced faulty value or a bridge at net n.
func (p *podem) injectStem(n *netlist.Net, v logic.V5) logic.V5 {
	t := p.t
	if t == nil || t.Net != n {
		return v
	}
	switch t.Effect {
	case fault.EffectStem:
		return force(v, t.Val)
	case fault.EffectBridge:
		sb, known := p.good[t.Other.ID].Good()
		if !known {
			return logic.X
		}
		return force(v, sb)
	}
	return v
}

// hostEval computes the cell-aware host gate's faulty-composite output from
// its inputs' good values: the cell output flips exactly when the good input
// assignment equals the target's.
func (p *podem) hostEval(g *netlist.Gate) logic.V5 {
	gv := p.good[g.Out.ID]
	match := true // every input is known and equals its bit of Asg
	for i, in := range g.Fanin {
		gb, known := p.good[in.ID].Good()
		if known && uint(gb) != p.t.Asg>>uint(i)&1 {
			return gv // definite mismatch: fault-free behavior
		}
		match = match && known
	}
	if !match {
		return logic.X // could still match or not
	}
	gb, known := gv.Good()
	if !known {
		return logic.X
	}
	return logic.FromBits(gb, gb^1)
}

// faninVal returns the composite value gate g actually sees on input i:
// for the branch-fault gate this applies the forced value to the faulty
// projection.
func (p *podem) faninVal(g *netlist.Gate, i int) logic.V5 {
	v := p.vals[g.Fanin[i].ID]
	if t := p.t; t != nil && t.Effect == fault.EffectBranch && t.Gate == g && t.Pin == i {
		return force(v, t.Val)
	}
	return v
}

// detected reports whether a fault effect has reached a primary output —
// or, for pure justification runs, whether all conditions hold.
func (p *podem) detected() bool {
	if p.t == nil {
		for _, c := range p.conds {
			gb, known := p.good[c.Net.ID].Good()
			if !known || gb != c.Val {
				return false
			}
		}
		return true
	}
	for _, po := range p.conePOs {
		if p.vals[po.ID].IsError() {
			return true
		}
	}
	return false
}

// objective returns the next (net, value) goal, or ok=false when the
// current assignment can never lead to detection (triggering backtrack).
func (p *podem) objective() (*netlist.Net, uint8, bool) {
	// Observability prune first: the fault effect originates at the site
	// net; if no path of X/error values leads from the site to a primary
	// output, no extension of the current assignment can detect the
	// fault. This fires long before excitation is complete and disposes
	// of faults in unobservable logic immediately.
	if p.t != nil && !p.sitePathExists(p.t.Site()) {
		return nil, 0, false
	}

	// Unsatisfied conditions next (excitation / justification).
	for _, c := range p.conds {
		gb, known := p.good[c.Net.ID].Good()
		if !known {
			return c.Net, c.Val, true
		}
		if gb != c.Val {
			return nil, 0, false // condition contradicted
		}
	}
	if p.t == nil {
		return nil, 0, false // all conditions met handled by detected()
	}

	// Conditions met: the fault must now be excited somewhere. Find the
	// D-frontier; if the error has not appeared and cannot appear,
	// backtrack. Errors arise only in the region, so only the gates driving
	// region nets can carry one or see one on an input.
	errSeen := false
	frontier := p.frontier[:0]
	for _, g := range p.regionGates {
		out := p.vals[g.Out.ID]
		if out.IsError() {
			errSeen = true
			continue
		}
		if out != logic.X {
			continue
		}
		for i := range g.Fanin {
			if p.faninVal(g, i).IsError() {
				frontier = append(frontier, g)
				break
			}
		}
	}
	p.frontier = frontier
	// Also: the error may sit directly on a PO-driving net already
	// (detected() would have caught it). If no errored net exists at all
	// and excitation conditions are met, the error site itself is X or
	// the effect was blocked.
	if !errSeen && len(frontier) == 0 {
		// The site may still become errored once more inputs are
		// assigned (site value X). Find the site net; if it is X,
		// set an objective that defines it.
		if n, v, ok := p.siteObjective(); ok {
			return n, v, true
		}
		return nil, 0, false
	}
	if len(frontier) == 0 {
		return nil, 0, false // error exists but frontier empty: blocked everywhere
	}

	// X-path check: some frontier gate must reach a PO through X nets.
	if !p.xPathExists(frontier) {
		return nil, 0, false
	}

	// Try frontier gates closest to a PO first; the branch is dead only
	// if no frontier gate can pass the error under any completion.
	sort.Slice(frontier, func(i, j int) bool {
		return p.levels[frontier[i].Out.ID] > p.levels[frontier[j].Out.ID]
	})
	for _, fg := range frontier {
		if n, v, ok := p.propagationObjective(fg); ok {
			return n, v, true
		}
	}
	return nil, 0, false
}

// sitePathExists reports whether the site's (current or future) error can
// still reach a primary output through nets whose values are X or already
// erroneous. A site with a known non-error value cannot produce an error
// under any extension (values are monotone), so it returns false then.
func (p *podem) sitePathExists(site *netlist.Net) bool {
	v := p.vals[site.ID]
	if v != logic.X && !v.IsError() {
		return false
	}
	ep := p.newEpoch()
	p.mark[site.ID] = ep
	return p.reachesPO(append(p.queue[:0], site), ep)
}

// reachesPO reports whether a breadth-first sweep from the queued nets
// (already stamped with ep) reaches a primary output through nets whose
// values are X or erroneous.
func (p *podem) reachesPO(queue []*netlist.Net, ep uint32) bool {
	found := false
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		if n.IsPO {
			found = true
			break
		}
		for _, pin := range n.Fanout {
			out := pin.Gate.Out
			if p.mark[out.ID] == ep {
				continue
			}
			ov := p.vals[out.ID]
			if ov == logic.X || ov.IsError() {
				p.mark[out.ID] = ep
				queue = append(queue, out)
			}
		}
	}
	p.queue = queue[:0]
	return found
}

// siteObjective returns an objective that defines the faulty net of a stem
// or branch target while its good value is still X (e.g. a stem fault
// whose driver output is unknown). Bridge and host targets define their
// sites through their conditions.
func (p *podem) siteObjective() (*netlist.Net, uint8, bool) {
	t := p.t
	if t.Effect != fault.EffectStem && t.Effect != fault.EffectBranch {
		return nil, 0, false
	}
	if _, known := p.good[t.Net.ID].Good(); known {
		return nil, 0, false
	}
	return t.Net, t.Val ^ 1, true
}

// xPathExists checks whether any frontier gate output reaches a PO through
// nets currently X (or carrying errors).
func (p *podem) xPathExists(frontier []*netlist.Gate) bool {
	ep := p.newEpoch()
	queue := p.queue[:0]
	for _, g := range frontier {
		if out := g.Out; p.vals[out.ID] == logic.X && p.mark[out.ID] != ep {
			p.mark[out.ID] = ep
			queue = append(queue, out)
		}
	}
	return p.reachesPO(queue, ep)
}

// propagationObjective picks an (input net, value) of frontier gate g that
// can drive the error to the output: an X input and a value under which a
// completion exists where the output becomes an error.
func (p *podem) propagationObjective(g *netlist.Gate) (*netlist.Net, uint8, bool) {
	var in [8]logic.V5
	for i := range g.Fanin {
		in[i] = p.faninVal(g, i)
	}
	for i, fn := range g.Fanin {
		if in[i] != logic.X {
			continue
		}
		for _, v := range []uint8{1, 0} {
			in[i] = logic.FromBit(v)
			if p.outputCanError(g, in[:len(g.Fanin)]) {
				return fn, v, true
			}
		}
		in[i] = logic.X
	}
	return nil, 0, false
}

// outputCanError reports whether some completion of the X inputs by 0 and 1
// makes the gate output an error value. Error inputs are fixed at their
// D/DBar value. The gate's five-valued table settles it in one lookup unless
// the output is X there: an error means every completion errs and a known
// value that none does. An X output leaves it to the completions.
func (p *podem) outputCanError(g *netlist.Gate, in []logic.V5) bool {
	tab := p.v5tab[g.ID]
	if v := tab.Eval(in); v != logic.X {
		return v.IsError()
	}
	n := len(in)
	var buf [8]int
	xIdx := buf[:0]
	for i, v := range in {
		if v == logic.X {
			xIdx = append(xIdx, i)
		}
	}
	var tmp [8]logic.V5
	copy(tmp[:], in)
	for sub := 0; sub < 1<<uint(len(xIdx)); sub++ {
		for k, i := range xIdx {
			tmp[i] = logic.FromBit(uint8(sub >> uint(k) & 1))
		}
		if tab.Eval(tmp[:n]).IsError() {
			return true
		}
	}
	return false
}

// backtrace maps an objective (net, good value) back to an unassigned PI
// and a value. ok=false when no X PI can influence the objective.
func (p *podem) backtrace(n *netlist.Net, v uint8) (int, uint8, bool) {
	for {
		if n.IsPI {
			i := p.piIdx[n.ID]
			if i < 0 || p.piVal[i] != -1 {
				return 0, 0, false
			}
			return int(i), v, true
		}
		g := n.Driver
		pin, val, ok := p.backtraceStep(g, v)
		if !ok {
			return 0, 0, false
		}
		n = g.Fanin[pin]
		v = val
	}
}

// backtraceStep picks an X input of g and a value consistent with driving
// the output's good value to v: there must exist a completion of the other
// X inputs achieving v. Inputs whose assignment *forces* the output to v
// (a controlling value) are strongly preferred — this closes objectives
// locally instead of deferring them down long chains (decisive on
// carry-chain justification); among equals, lower-level inputs win.
func (p *podem) backtraceStep(g *netlist.Gate, v uint8) (int, uint8, bool) {
	var in [8]logic.V5
	for i, fn := range g.Fanin {
		in[i] = p.good[fn.ID]
	}
	n := len(g.Fanin)
	tab := p.v5tab[g.ID]
	bestPin, bestVal := -1, uint8(0)
	bestLvl := int(^uint(0) >> 1)
	bestForced := false
	for i := range g.Fanin {
		if in[i] != logic.X {
			continue
		}
		for _, cand := range []uint8{0, 1} {
			in[i] = logic.FromBit(cand)
			// The table is exact over completions of the X inputs: a
			// known output is the value of every completion, and X
			// means both values occur.
			out, known := tab.Eval(in[:n]).Good()
			if known && out != v {
				in[i] = logic.X
				continue
			}
			forced := known // no completion gives v^1
			lvl := p.levels[g.Fanin[i].ID]
			betterPick := false
			switch {
			case forced && !bestForced:
				betterPick = true
			case forced == bestForced && lvl < bestLvl:
				betterPick = true
			}
			if betterPick {
				bestLvl, bestPin, bestVal, bestForced = lvl, i, cand, forced
			}
			in[i] = logic.X
		}
		in[i] = logic.X
	}
	if bestPin < 0 {
		return 0, 0, false
	}
	return bestPin, bestVal, true
}

// valsBacktrace walks from a net whose composite (faulty-machine) value is
// unresolved down through X-valued fanins to an unassigned PI. It targets
// exactly the cone that keeps the propagation objective undetermined.
func (p *podem) valsBacktrace(n *netlist.Net) (int, bool) {
	for hops := 0; hops < len(p.c.Nets)+1; hops++ {
		if n.IsPI {
			i := p.piIdx[n.ID]
			if i < 0 || p.piVal[i] != -1 {
				return 0, false
			}
			return int(i), true
		}
		g := n.Driver
		next := (*netlist.Net)(nil)
		for _, in := range g.Fanin {
			if p.vals[in.ID] == logic.X {
				next = in
				break
			}
		}
		if next == nil {
			return 0, false
		}
		n = next
	}
	return 0, false
}

// firstFreePI returns an unassigned PI that can still influence detection:
// a PI in the transitive fanin cone of the gates the fault effect can still
// reach (the D-frontier and its X-path fanout). PIs outside that support
// cannot change any value the detection depends on, so if no support PI is
// free the branch is dead — which both preserves completeness and prunes
// the search sharply.
func (p *podem) firstFreePI() (int, uint8, bool) {
	// Forward sweep: gates the effect can still traverse (output X or
	// error, reachable from an errored net). Errors only arise in the
	// site's fanout region.
	ep := p.newEpoch()
	fwd := p.queue[:0]
	for _, n := range p.region {
		if p.vals[n.ID].IsError() && p.mark[n.ID] != ep {
			p.mark[n.ID] = ep
			fwd = append(fwd, n)
		}
	}
	for i := 0; i < len(fwd); i++ {
		for _, pin := range fwd[i].Fanout {
			out := pin.Gate.Out
			v := p.vals[out.ID]
			if (v == logic.X || v.IsError()) && p.mark[out.ID] != ep {
				p.mark[out.ID] = ep
				fwd = append(fwd, out)
			}
		}
	}
	// Backward sweep: fanin support of every forward-reachable net,
	// appended behind the forward nets.
	ep = p.newEpoch()
	for _, n := range fwd {
		p.mark[n.ID] = ep
	}
	sup := fwd
	for i := 0; i < len(sup); i++ {
		if g := sup[i].Driver; g != nil {
			for _, in := range g.Fanin {
				if p.mark[in.ID] != ep {
					p.mark[in.ID] = ep
					sup = append(sup, in)
				}
			}
		}
	}
	p.queue = sup[:0]
	for _, i := range p.conePIs {
		if p.piVal[i] == -1 && p.mark[p.c.PIs[i].ID] == ep {
			return i, 0, true
		}
	}
	return 0, 0, false
}

// fillVector produces the final test vector, filling unassigned PIs
// randomly.
func (p *podem) fillVector(rng *rand.Rand) []uint8 {
	out := make([]uint8, len(p.c.PIs))
	for i, v := range p.piVal {
		if v < 0 {
			out[i] = uint8(rng.Intn(2))
		} else {
			out[i] = uint8(v)
		}
	}
	return out
}

// Generator runs PODEM searches over one circuit, reusing the implication
// engine (and its per-cell evaluation tables) across faults.
type Generator struct {
	p *podem
}

// Backtracks returns the cumulative backtrack count across every search
// this generator has run — the engine-cost telemetry behind the
// atpg/podem_backtracks metric (a fault's cost is the delta across its
// Generate call).
func (gen *Generator) Backtracks() int { return gen.p.btTotal }

// NewGenerator prepares a generator. levels must be the circuit's net
// levels and order its levelized gates.
func NewGenerator(c *netlist.Circuit, order []*netlist.Gate, levels []int, limit int) *Generator {
	return &Generator{p: newPodem(c, order, levels, limit)}
}

// Generate runs complete PODEM searches for fault f and returns either a
// test (possibly two-pattern), a proof of undetectability, or an abort.
func (gen *Generator) Generate(f *fault.Fault, rng *rand.Rand) (SearchOutcome, *TestVec) {
	return gen.GenerateWith(f, nil, rng)
}

// GenerateWith runs the searches for fault f with additional good-value
// conditions imposed on every detection vector (the initialization vectors
// of two-pattern tests are unconstrained). ProvenImpossible then means "no
// test detects f while satisfying the extra conditions". The double-fault
// baseline imposes the activation conditions of an undetectable fault this
// way while detecting a neighbouring one.
//
// Each of f's detection targets gets one complete search, in fault.Targets
// order, and a pattern-pair target that search satisfies gets one
// justification search per initialisation alternative.
func (gen *Generator) GenerateWith(f *fault.Fault, extra []fault.Cond, rng *rand.Rand) (SearchOutcome, *TestVec) {
	p := gen.p
	aborted := false
	p.targets.Reset(f)
	for p.targets.Next() {
		t := p.targets.Target()
		p.t, p.conds = t, append(append(p.conds[:0], t.Conds...), extra...)
		out, vec := p.search(rng)
		aborted = aborted || out == LimitExceeded
		if out != FoundTest {
			continue
		}
		if t.Inits == 0 {
			return FoundTest, &TestVec{Vec: vec}
		}
		p.t = nil
		for m := t.Inits; m != 0; m &= m - 1 {
			p.conds = t.InitConds(p.conds[:0], uint(bits.TrailingZeros64(m)))
			out, init := p.search(rng)
			if out == FoundTest {
				return FoundTest, &TestVec{Init: init, Vec: vec}
			}
			aborted = aborted || out == LimitExceeded
		}
	}
	if aborted {
		return LimitExceeded, nil
	}
	return ProvenImpossible, nil
}

// TestVec is a generated test: an optional initialization vector and the
// final vector.
type TestVec struct {
	Init []uint8
	Vec  []uint8
}
