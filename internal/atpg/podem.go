// Package atpg implements automatic test pattern generation for the DFM
// fault universe: a PODEM test generator with five-valued logic,
// backtrack-limited complete search (providing proofs of undetectability),
// a random-pattern bootstrap phase, and reverse-order test-set compaction.
package atpg

import (
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

// condition is a required good value on a net (excitation condition or
// justification target).
type condition struct {
	net *netlist.Net
	val uint8
}

// Condition is an externally-imposed requirement on the good value of a
// net, usable as an extra constraint on a search (see
// Generator.GenerateWith). The double-fault baseline uses it to demand the
// activation condition of an undetectable fault while detecting a
// neighbouring one.
type Condition struct {
	Net *netlist.Net
	Val uint8
}

// injection describes how the fault modifies five-valued evaluation.
type injection struct {
	// stemNet/stemVal: the net is forced to stemVal in the faulty circuit.
	stemNet *netlist.Net
	stemVal uint8
	// branchGate/branchPin/branchVal: only this gate input is forced.
	branchGate *netlist.Gate
	branchPin  int
	branchVal  uint8
	// hostGate + flip: cell-aware host; when the good inputs match
	// hostAsg exactly the output is complemented.
	hostGate *netlist.Gate
	hostAsg  uint
	// bridgeVictim/bridgeSrc: victim takes the good value of source.
	bridgeVictim *netlist.Net
	bridgeSrc    *netlist.Net
	none         bool // pure justification (no fault)
}

// podem is one complete-search engine instance over a circuit.
//
// Every search is bounded by its cone (see buildCone): implication, the
// D-frontier scan, the detection check and the free-PI choice visit only the
// cone's gates, nets and PIs. Values of nets outside the cone are left over
// from earlier searches and are never read.
type podem struct {
	c      *netlist.Circuit
	order  []*netlist.Gate
	levels []int
	pos    []int32 // gate ID -> position in order
	piIdx  []int32 // net ID -> position in c.PIs, -1 for other nets

	vals  []logic.V5 // per net, current implied values
	good  []logic.V5 // per net, good-circuit ternary values (0/1/X as V5)
	piVal []int8     // per PI position: -1 unassigned, else 0/1

	inj        injection
	conds      []condition
	extra      []condition // externally-imposed conditions on detection searches
	backtracks int
	btTotal    int // cumulative backtracks across every search (telemetry)
	limit      int

	// The current search's cone: region is the site's structural fanout
	// region, cone the gates of the transitive fanin of the region, the
	// conditions and the bridge source in order, conePIs its PI positions
	// ascending and conePOs its PO nets.
	region  []*netlist.Net
	cone    []*netlist.Gate
	conePIs []int
	conePOs []*netlist.Net

	// mark is an epoch-stamped visited set: mark[n] == epoch means net n
	// was reached by the current sweep, so a sweep starts with one
	// increment instead of clearing a per-net array.
	mark  []uint32
	epoch uint32

	// reusable scratch
	queue    []*netlist.Net
	frontier []*netlist.Gate
	gpos     []int32

	// v5tab holds each gate's five-valued evaluation table, by gate ID;
	// gates of one cell share the cell's table.
	v5tab []*logic.V5Table
}

func newPodem(c *netlist.Circuit, order []*netlist.Gate, levels []int, limit int) *podem {
	p := &podem{
		c:      c,
		order:  order,
		levels: levels,
		pos:    make([]int32, len(c.Gates)),
		piIdx:  make([]int32, len(c.Nets)),
		vals:   make([]logic.V5, len(c.Nets)),
		good:   make([]logic.V5, len(c.Nets)),
		piVal:  make([]int8, len(c.PIs)),
		limit:  limit,
		mark:   make([]uint32, len(c.Nets)),
		v5tab:  make([]*logic.V5Table, len(c.Gates)),
	}
	for i, g := range order {
		p.pos[g.ID] = int32(i)
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

// buildCone computes the current search's cone from the configured
// injection and conditions. The region is every net structurally reachable
// from the site net; every net that can carry a fault effect lies in it. The
// cone adds the transitive fanin of the region (which covers the host and
// branch gate inputs, since those gates drive region nets), of every
// condition net (extra conditions included) and of the bridge source. The
// cone is closed under fanin, so implying its gates in order gives its nets
// exactly the values a whole-circuit implication would, and every net the
// search reads lies in it.
func (p *podem) buildCone() {
	p.region = p.region[:0]
	if site := p.siteNet(); site != nil {
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
		push(c.net)
	}
	if p.inj.bridgeSrc != nil {
		push(p.inj.bridgeSrc)
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
	p.queue, p.gpos = stack, gpos
}

// evalGate evaluates a gate through the cached five-valued table.
func (p *podem) evalGate(g *netlist.Gate, in []logic.V5) logic.V5 {
	return p.v5tab[g.ID].Eval(in)
}

type decision struct {
	pi      int
	val     uint8
	flipped bool
}

// search runs a complete PODEM search for the configured injection and
// conditions. On FoundTest, the returned vector has every PI specified
// (unassigned PIs are filled from rng).
func (p *podem) search(rng *rand.Rand) (SearchOutcome, []uint8) {
	for i := range p.piVal {
		p.piVal[i] = -1
	}
	p.backtracks = 0
	p.buildCone()
	var stack []decision

	for {
		p.imply()
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
				stack = append(stack, decision{pi: pi, val: val})
				p.piVal[pi] = int8(val)
				continue
			}
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return ProvenImpossible, nil
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val ^= 1
				p.piVal[top.pi] = int8(top.val)
				p.backtracks++
				p.btTotal++
				if p.backtracks > p.limit {
					return LimitExceeded, nil
				}
				break
			}
			p.piVal[top.pi] = -1
			stack = stack[:len(stack)-1]
		}
	}
}

// imply performs five-valued forward implication over the cone from the
// current PI assignment, maintaining both the pure-good ternary values
// (p.good) and the faulty-circuit composite values (p.vals).
func (p *podem) imply() {
	// Pass 1: exact ternary good values for every cone net. The faulty
	// pass needs these complete (a bridge source may lie later in
	// topological order than its victim).
	var gbuf, fbuf [8]logic.V5
	for _, i := range p.conePIs {
		var v logic.V5
		switch p.piVal[i] {
		case 0:
			v = logic.Zero
		case 1:
			v = logic.One
		default:
			v = logic.X
		}
		p.good[p.c.PIs[i].ID] = v
	}
	for _, g := range p.cone {
		gin := gbuf[:len(g.Fanin)]
		for i, in := range g.Fanin {
			gin[i] = p.good[in.ID]
		}
		p.good[g.Out.ID] = p.evalGate(g, gin)
	}

	// Pass 2: faulty-composite values with the injection applied.
	for _, i := range p.conePIs {
		n := p.c.PIs[i]
		p.vals[n.ID] = p.injectStem(n, p.good[n.ID])
	}
	for _, g := range p.cone {
		gin := gbuf[:len(g.Fanin)]
		fin := fbuf[:len(g.Fanin)]
		for i, in := range g.Fanin {
			gin[i] = p.good[in.ID]
			fin[i] = p.vals[in.ID]
		}
		if p.inj.branchGate == g {
			// The branch input sees the forced value in the faulty
			// circuit; its good projection is the net's good value.
			gb, known := fin[p.inj.branchPin].Good()
			if known {
				fin[p.inj.branchPin] = logic.FromBits(gb, p.inj.branchVal)
			} else {
				fin[p.inj.branchPin] = logic.X
			}
		}
		var fv logic.V5
		if p.inj.hostGate == g {
			fv = p.hostEval(g, gin, p.good[g.Out.ID])
		} else {
			fv = p.evalGate(g, fin)
		}
		p.vals[g.Out.ID] = p.injectStem(g.Out, fv)
	}
}

// injectStem applies a stem-forced faulty value or a bridge at net n.
func (p *podem) injectStem(n *netlist.Net, v logic.V5) logic.V5 {
	if p.inj.stemNet == n {
		gb, known := v.Good()
		if !known {
			return logic.X
		}
		return logic.FromBits(gb, p.inj.stemVal)
	}
	if p.inj.bridgeVictim == n {
		gb, known := v.Good()
		if !known {
			return logic.X
		}
		sb, sknown := p.good[p.inj.bridgeSrc.ID].Good()
		if !sknown {
			return logic.X
		}
		return logic.FromBits(gb, sb)
	}
	return v
}

// hostEval computes the cell-aware host gate's faulty-composite output: the
// cell output flips exactly when the good input assignment equals hostAsg.
func (p *podem) hostEval(g *netlist.Gate, gin []logic.V5, gv logic.V5) logic.V5 {
	for i, v := range gin {
		gb, known := v.Good()
		if !known {
			// Could still match or not: if mismatch is already
			// certain, output is fault-free; otherwise unknown.
			if !p.canMatchHost(gin) {
				return gv
			}
			return logic.X
		}
		if uint(gb) != p.inj.hostAsg>>uint(i)&1 {
			return gv // definite mismatch: fault-free behavior
		}
	}
	gb, known := gv.Good()
	if !known {
		return logic.X
	}
	return logic.FromBits(gb, gb^1)
}

// canMatchHost reports whether the partially-known good inputs can still
// complete to hostAsg.
func (p *podem) canMatchHost(gin []logic.V5) bool {
	for i, v := range gin {
		gb, known := v.Good()
		if known && uint(gb) != p.inj.hostAsg>>uint(i)&1 {
			return false
		}
	}
	return true
}

// faninVal returns the composite value gate g actually sees on input i:
// for the branch-fault gate this applies the forced value to the faulty
// projection.
func (p *podem) faninVal(g *netlist.Gate, i int) logic.V5 {
	v := p.vals[g.Fanin[i].ID]
	if p.inj.branchGate == g && p.inj.branchPin == i {
		gb, known := v.Good()
		if !known {
			return logic.X
		}
		return logic.FromBits(gb, p.inj.branchVal)
	}
	return v
}

// detected reports whether a fault effect has reached a primary output —
// or, for pure justification runs, whether all conditions hold.
func (p *podem) detected() bool {
	if p.inj.none {
		for _, c := range p.conds {
			gb, known := p.good[c.net.ID].Good()
			if !known || gb != c.val {
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
	if !p.inj.none {
		if site := p.siteNet(); site != nil && !p.sitePathExists(site) {
			return nil, 0, false
		}
	}

	// Unsatisfied conditions next (excitation / justification).
	for _, c := range p.conds {
		gb, known := p.good[c.net.ID].Good()
		if !known {
			return c.net, c.val, true
		}
		if gb != c.val {
			return nil, 0, false // condition contradicted
		}
	}
	if p.inj.none {
		return nil, 0, false // all conditions met handled by detected()
	}

	// Conditions met: the fault must now be excited somewhere. Find the
	// D-frontier; if the error has not appeared and cannot appear,
	// backtrack.
	errSeen := false
	frontier := p.frontier[:0]
	for _, g := range p.cone {
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

// siteNet returns the net where the fault effect originates.
func (p *podem) siteNet() *netlist.Net {
	switch {
	case p.inj.stemNet != nil:
		return p.inj.stemNet
	case p.inj.bridgeVictim != nil:
		return p.inj.bridgeVictim
	case p.inj.branchGate != nil:
		return p.inj.branchGate.Out
	case p.inj.hostGate != nil:
		return p.inj.hostGate.Out
	}
	return nil
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

// siteObjective returns an objective that defines the fault site value when
// it is still X (e.g. a stem fault whose driver output is unknown).
func (p *podem) siteObjective() (*netlist.Net, uint8, bool) {
	switch {
	case p.inj.stemNet != nil:
		n := p.inj.stemNet
		if _, known := p.good[n.ID].Good(); !known {
			return n, p.inj.stemVal ^ 1, true
		}
	case p.inj.bridgeVictim != nil:
		// Handled through conditions.
	case p.inj.branchGate != nil:
		n := p.inj.branchGate.Fanin[p.inj.branchPin]
		if _, known := p.good[n.ID].Good(); !known {
			return n, p.inj.branchVal ^ 1, true
		}
	case p.inj.hostGate != nil:
		// Host inputs are handled through conditions.
	}
	return nil, 0, false
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

// outputCanError reports whether some completion of the X inputs makes the
// gate output an error value. Error inputs are fixed at their D/DBar value.
func (p *podem) outputCanError(g *netlist.Gate, in []logic.V5) bool {
	n := len(in)
	var xIdx []int
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
		if g.Type.TT.EvalV5(tmp[:n]).IsError() {
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
	bestPin, bestVal := -1, uint8(0)
	bestLvl := int(^uint(0) >> 1)
	bestForced := false
	for i := range g.Fanin {
		if in[i] != logic.X {
			continue
		}
		for _, cand := range []uint8{0, 1} {
			in[i] = logic.FromBit(cand)
			if !goodCanBe(g, in[:n], v) {
				in[i] = logic.X
				continue
			}
			forced := !goodCanBe(g, in[:n], v^1)
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

// goodCanBe reports whether a completion of X inputs gives good output v.
func goodCanBe(g *netlist.Gate, in []logic.V5, v uint8) bool {
	var xIdx []int
	var base uint
	for i, val := range in {
		gb, known := val.Good()
		if !known {
			xIdx = append(xIdx, i)
			continue
		}
		base |= uint(gb) << uint(i)
	}
	for sub := 0; sub < 1<<uint(len(xIdx)); sub++ {
		a := base
		for k, i := range xIdx {
			a |= uint(sub>>uint(k)&1) << uint(i)
		}
		if g.Type.Eval(a) == v {
			return true
		}
	}
	return false
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

// GenerateOne runs complete PODEM searches for fault f and returns either a
// test (possibly two-pattern), a proof of undetectability, or an abort.
// levels must be the circuit's net levels and order its levelized gates.
// For many faults on the same circuit, prefer a Generator.
func GenerateOne(c *netlist.Circuit, order []*netlist.Gate, levels []int,
	f *fault.Fault, limit int, rng *rand.Rand) (SearchOutcome, *TestVec) {
	return NewGenerator(c, order, levels, limit).Generate(f, rng)
}

// Generate runs complete PODEM searches for fault f.
func (gen *Generator) Generate(f *fault.Fault, rng *rand.Rand) (SearchOutcome, *TestVec) {
	return gen.GenerateWith(f, nil, rng)
}

// GenerateWith runs the searches for fault f with additional good-value
// conditions imposed on every detection vector (the initialization vectors
// of two-pattern tests are unconstrained). ProvenImpossible then means "no
// test detects f while satisfying the extra conditions".
func (gen *Generator) GenerateWith(f *fault.Fault, extra []Condition, rng *rand.Rand) (SearchOutcome, *TestVec) {
	p := gen.p
	p.extra = p.extra[:0]
	for _, e := range extra {
		p.extra = append(p.extra, condition{net: e.Net, val: e.Val})
	}
	defer func() { p.extra = p.extra[:0] }()
	aborted := false

	runOnce := func() (SearchOutcome, []uint8) { return p.search(rng) }

	switch f.Model {
	case fault.StuckAt:
		p.configureStuckAt(f)
		out, vec := runOnce()
		switch out {
		case FoundTest:
			return FoundTest, &TestVec{Vec: vec}
		case LimitExceeded:
			return LimitExceeded, nil
		}
		return ProvenImpossible, nil

	case fault.Transition:
		// Phase 1: detect stuck-at-Value at the site.
		p.configureStuckAt(&fault.Fault{Model: fault.StuckAt, Net: f.Net,
			BranchGate: f.BranchGate, BranchPin: f.BranchPin, Value: f.Value})
		out, vec := runOnce()
		if out == LimitExceeded {
			return LimitExceeded, nil
		}
		if out == ProvenImpossible {
			return ProvenImpossible, nil
		}
		// Phase 2: justify the initialization value at the site.
		p.configureJustify([]condition{{net: f.Net, val: f.Value}})
		out2, init := runOnce()
		switch out2 {
		case FoundTest:
			return FoundTest, &TestVec{Init: init, Vec: vec}
		case LimitExceeded:
			return LimitExceeded, nil
		}
		return ProvenImpossible, nil

	case fault.Bridge:
		// Two polarities: victim 1 / aggressor 0, and the reverse.
		for _, va := range []uint8{1, 0} {
			p.configureBridge(f, va)
			out, vec := runOnce()
			switch out {
			case FoundTest:
				return FoundTest, &TestVec{Vec: vec}
			case LimitExceeded:
				aborted = true
			}
		}
		if aborted {
			return LimitExceeded, nil
		}
		return ProvenImpossible, nil

	case fault.CellAware:
		return p.generateCellAware(f, rng)
	}
	return ProvenImpossible, nil
}

// TestVec is a generated test: an optional initialization vector and the
// final vector.
type TestVec struct {
	Init []uint8
	Vec  []uint8
}

func (p *podem) configureStuckAt(f *fault.Fault) {
	p.inj = injection{}
	p.conds = p.conds[:0]
	if f.BranchGate != nil {
		p.inj.branchGate = f.BranchGate
		p.inj.branchPin = f.BranchPin
		p.inj.branchVal = f.Value
		p.conds = append(p.conds, condition{net: f.Net, val: f.Value ^ 1})
	} else {
		p.inj.stemNet = f.Net
		p.inj.stemVal = f.Value
		p.conds = append(p.conds, condition{net: f.Net, val: f.Value ^ 1})
	}
	p.conds = append(p.conds, p.extra...)
}

func (p *podem) configureBridge(f *fault.Fault, victimVal uint8) {
	p.inj = injection{bridgeVictim: f.Net, bridgeSrc: f.Other}
	p.conds = p.conds[:0]
	p.conds = append(p.conds,
		condition{net: f.Net, val: victimVal},
		condition{net: f.Other, val: victimVal ^ 1})
	p.conds = append(p.conds, p.extra...)
}

func (p *podem) configureJustify(conds []condition) {
	p.inj = injection{none: true}
	p.conds = append(p.conds[:0], conds...)
}

func (p *podem) configureHost(g *netlist.Gate, asg uint) {
	p.inj = injection{hostGate: g, hostAsg: asg}
	p.conds = p.conds[:0]
	for i, in := range g.Fanin {
		p.conds = append(p.conds, condition{net: in, val: uint8(asg >> uint(i) & 1)})
	}
	p.conds = append(p.conds, p.extra...)
}

// generateCellAware tries every activating assignment (static first, then
// dynamic pairs) with a complete search each.
func (p *podem) generateCellAware(f *fault.Fault, rng *rand.Rand) (SearchOutcome, *TestVec) {
	g := f.Gate
	beh := f.Behavior
	n := uint(1) << uint(beh.Inputs)
	aborted := false

	for a := uint(0); a < n; a++ {
		if beh.StaticMask>>a&1 == 0 {
			continue
		}
		p.configureHost(g, a)
		out, vec := p.search(rng)
		switch out {
		case FoundTest:
			return FoundTest, &TestVec{Vec: vec}
		case LimitExceeded:
			aborted = true
		}
	}

	// Dynamic pairs: propagate under a2, then justify a1 on the init
	// vector.
	if len(beh.PairMask) == 0 {
		if aborted {
			return LimitExceeded, nil
		}
		return ProvenImpossible, nil
	}
	for a2 := uint(0); a2 < n; a2++ {
		anyPair := false
		for a1 := uint(0); a1 < n; a1++ {
			if uint(len(beh.PairMask)) > a1 && beh.PairMask[a1]>>a2&1 == 1 {
				anyPair = true
				break
			}
		}
		if !anyPair {
			continue
		}
		p.configureHost(g, a2)
		out, vec := p.search(rng)
		if out == LimitExceeded {
			aborted = true
			continue
		}
		if out == ProvenImpossible {
			continue
		}
		for a1 := uint(0); a1 < n; a1++ {
			if beh.PairMask[a1]>>a2&1 == 0 {
				continue
			}
			conds := make([]condition, 0, len(g.Fanin))
			for i, in := range g.Fanin {
				conds = append(conds, condition{net: in, val: uint8(a1 >> uint(i) & 1)})
			}
			p.configureJustify(conds)
			out2, init := p.search(rng)
			switch out2 {
			case FoundTest:
				return FoundTest, &TestVec{Init: init, Vec: vec}
			case LimitExceeded:
				aborted = true
			}
		}
	}
	if aborted {
		return LimitExceeded, nil
	}
	return ProvenImpossible, nil
}
