package implic

import (
	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
)

// This file implements FIRE-style fault-independent redundancy
// identification on top of the implication closure. A fault is proven
// undetectable when its excitation requirements are statically
// contradictory, or when every path from the fault site to a primary
// output is statically blocked under the consequences of excitation.
// Every check is a sound over-approximation of detectability: the
// screen answers true only when a complete PODEM search would return
// ProvenImpossible, never when it would find a test. (The reverse does
// not hold — the screen is incomplete, and the remaining faults still
// go through the search.)

// Undetectable reports whether the fault is statically proven
// undetectable. Safe on a nil engine (always false). The fault must
// target the circuit the engine was built for.
func (e *Engine) Undetectable(f *fault.Fault) bool {
	if e == nil {
		return false
	}
	switch f.Model {
	case fault.StuckAt:
		return e.stuckAtUndet(f.Net, f.BranchGate, f.BranchPin, f.Value)
	case fault.Transition:
		// The launch pattern must detect stuck-at-Value at the site and
		// the initialization pattern must justify Value there.
		if e.stuckAtUndet(f.Net, f.BranchGate, f.BranchPin, f.Value) {
			return true
		}
		return e.Impossible(MkLit(f.Net.ID, f.Value))
	case fault.Bridge:
		return e.bridgeUndet(f)
	case fault.CellAware:
		return e.cellAwareUndet(f)
	}
	return false
}

// stuckAtUndet screens one stuck-at fault: excitation requires the good
// value Value^1 at the site, and the resulting difference must reach a
// primary output.
func (e *Engine) stuckAtUndet(net *netlist.Net, bg *netlist.Gate, bp int, val uint8) bool {
	exc := MkLit(net.ID, val^1)
	if e.conflicting([]Lit{exc}) {
		return true
	}
	E := eset{e: e, lits: []Lit{exc}}
	if bg != nil {
		return !e.reachPOFromGate(bg, bp, E)
	}
	return !e.reachPO(net, E)
}

// bridgeUndet screens a dominant-model bridge: each polarity needs
// victim=va with aggressor=va^1 (then the victim flips), and the flip
// must reach a primary output.
func (e *Engine) bridgeUndet(f *fault.Fault) bool {
	for _, va := range []uint8{1, 0} {
		lits := []Lit{MkLit(f.Net.ID, va), MkLit(f.Other.ID, va^1)}
		if e.conflicting(lits) {
			continue
		}
		if e.reachPO(f.Net, eset{e: e, lits: lits}) {
			return false
		}
	}
	return true
}

// cellAwareUndet screens a cell-aware fault: every activating input
// assignment of the host gate must be statically unjustifiable or have
// its output difference blocked. For dynamic (two-pattern) activations
// the second pattern must also have at least one justifiable partner
// for the initialization vector.
func (e *Engine) cellAwareUndet(f *fault.Fault) bool {
	g := f.Gate
	beh := f.Behavior
	if beh == nil {
		return false
	}
	n := uint(1) << uint(beh.Inputs)

	for a := uint(0); a < n; a++ {
		if beh.StaticMask>>a&1 == 0 {
			continue
		}
		if e.hostActivates(g, a) {
			return false
		}
	}
	for a2 := uint(0); a2 < n; a2++ {
		anyPair := false
		for a1 := uint(0); a1 < n; a1++ {
			if uint(len(beh.PairMask)) > a1 && beh.PairMask[a1]>>a2&1 == 1 &&
				!e.conflicting(e.hostLits(g, a1, false)) {
				anyPair = true
				break
			}
		}
		if !anyPair {
			continue
		}
		if e.hostActivates(g, a2) {
			return false
		}
	}
	return true
}

// hostLits returns the good-circuit literals forced by driving the host
// gate's inputs to assignment a; withOut additionally includes the
// implied output literal (the cell's truth-table response).
func (e *Engine) hostLits(g *netlist.Gate, a uint, withOut bool) []Lit {
	lits := make([]Lit, 0, len(g.Fanin)+1)
	for i, in := range g.Fanin {
		lits = append(lits, MkLit(in.ID, uint8(a>>uint(i)&1)))
	}
	if withOut {
		lits = append(lits, MkLit(g.Out.ID, g.Type.TT.Eval(a)))
	}
	return lits
}

// hostActivates reports whether host assignment a could be justified
// with the resulting output difference reaching a primary output.
func (e *Engine) hostActivates(g *netlist.Gate, a uint) bool {
	lits := e.hostLits(g, a, true)
	if e.conflicting(lits) {
		return false
	}
	return e.reachPO(g.Out, eset{e: e, lits: lits})
}

// conflicting reports whether the conjunction of lits is statically
// unsatisfiable: a literal is impossible on its own, two literals name
// opposite values of one net, or the closure derives one literal's
// negation from another.
func (e *Engine) conflicting(lits []Lit) bool {
	for i, a := range lits {
		if e.Impossible(a) {
			return true
		}
		for _, b := range lits[i+1:] {
			if a == b.Neg() || e.Implies(a, b.Neg()) || e.Implies(b, a.Neg()) {
				return true
			}
		}
	}
	return false
}

// eset is the conjunction of excitation literals plus everything the
// closure derives from them; has answers "must l hold in every test
// that excites the fault?".
type eset struct {
	e    *Engine
	lits []Lit
}

func (s eset) has(l Lit) bool {
	for _, a := range s.lits {
		if s.e.Implies(a, l) {
			return true
		}
	}
	// Constants hold regardless of the excitation literals.
	v, known := s.e.ConstNet(l.Net())
	return known && v == l.Val()
}

// reachPO reports whether a fault difference originating at the stem
// net origin could reach a primary output under excitation
// consequences E.
func (e *Engine) reachPO(origin *netlist.Net, E eset) bool {
	if origin.IsPO {
		return true
	}
	return e.bfs(origin, e.cone(origin.ID), E)
}

// reachPOFromGate is the branch-fault variant: the difference enters
// the circuit only through pin `pin` of gate g.
func (e *Engine) reachPOFromGate(g *netlist.Gate, pin int, E eset) bool {
	cone := e.cone(g.Out.ID)
	if !e.edgePasses(g, pin, cone, E) {
		return false
	}
	if g.Out.IsPO {
		return true
	}
	return e.bfs(g.Out, cone, E)
}

// scratch is one query's working memory: the BFS queue and the reached
// marks. A net is reached when its stamp equals the current epoch, so a
// new query forgets every mark by bumping the epoch instead of clearing.
type scratch struct {
	stamp []uint32
	epoch uint32
	queue []int32
}

// begin starts a query with no net reached. When the epoch counter wraps,
// the stamps are cleared, so a stamp left from 2^32 queries ago cannot
// equal the reused epoch.
func (s *scratch) begin() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

// reached reports whether the current query has visited net.
func (s *scratch) reached(net int) bool { return s.stamp[net] == s.epoch }

// visit marks net reached and queues it.
func (s *scratch) visit(net int) {
	s.stamp[net] = s.epoch
	s.queue = append(s.queue, int32(net))
}

// bfs walks the effect cone from start gate by gate, crossing an edge
// only when edgePasses cannot rule the crossing out, and reports whether
// any primary output is reachable. cone is the fanout cone of the
// fault's origin: the nets whose faulty value may differ from the good
// value.
func (e *Engine) bfs(start *netlist.Net, cone []uint64, E eset) bool {
	s := e.scratch.Get().(*scratch)
	defer e.scratch.Put(s)
	s.begin()
	s.visit(start.ID)
	for head := 0; head < len(s.queue); head++ {
		for _, pn := range e.c.Nets[s.queue[head]].Fanout {
			out := pn.Gate.Out
			if s.reached(out.ID) {
				continue
			}
			if !e.edgePasses(pn.Gate, pn.Pin, cone, E) {
				continue
			}
			if out.IsPO {
				return true
			}
			s.visit(out.ID)
		}
	}
	return false
}

// edgePasses reports whether a difference arriving on pin `pin` of gate
// g could appear at the gate output. It only ever blocks when pin is
// the gate's sole potential difference carrier; then the side inputs
// carry their good values, those are narrowed by constants and the
// excitation consequences E, and the crossing is blocked when no
// consistent side assignment sensitizes the pin, or when a side value
// required by every sensitizing assignment is refuted by E.
func (e *Engine) edgePasses(g *netlist.Gate, pin int, cone []uint64, E eset) bool {
	for j, in := range g.Fanin {
		if j != pin && inCone(cone, in.ID) {
			// Another fanin may carry the difference too; multi-path
			// effects (including reconvergence) are never pruned.
			return true
		}
	}
	tt := g.Type.TT
	nIn := len(g.Fanin)
	mask := uint(1)<<uint(nIn) - 1
	pinBit := uint(1) << uint(pin)
	var known, kvals uint
	for j, in := range g.Fanin {
		if j == pin {
			continue
		}
		one := MkLit(in.ID, 1)
		switch {
		case E.has(one):
			known |= 1 << uint(j)
			kvals |= 1 << uint(j)
		case E.has(one.Neg()):
			known |= 1 << uint(j)
		}
	}
	free := mask &^ known &^ pinBit
	sens := false
	andS := mask
	var orS uint
	sub := free
	for {
		a := kvals | sub
		if tt.Eval(a) != tt.Eval(a|pinBit) {
			sens = true
			andS &= a
			orS |= a
		}
		if sub == 0 {
			break
		}
		sub = (sub - 1) & free
	}
	if !sens {
		return false
	}
	for j, in := range g.Fanin {
		if j == pin || known>>uint(j)&1 == 1 {
			continue
		}
		var nl Lit
		switch {
		case andS>>uint(j)&1 == 1:
			nl = MkLit(in.ID, 1)
		case orS>>uint(j)&1 == 0:
			nl = MkLit(in.ID, 0)
		default:
			continue
		}
		if E.has(nl.Neg()) {
			return false
		}
	}
	return true
}
