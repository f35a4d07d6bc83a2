package implic

import (
	"math/bits"

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
// undetectable: no detection target of the fault (see fault.Targets) may
// be met. Safe on a nil engine (always false). The fault must target the
// circuit the engine was built for. A cell-aware fault without a Behavior
// is never proven.
func (e *Engine) Undetectable(f *fault.Fault) bool {
	if e == nil || f.Model == fault.CellAware && f.Behavior == nil {
		return false
	}
	s := e.scratch.Get().(*scratch)
	defer e.scratch.Put(s)
	s.targets.Reset(f)
	for s.targets.Next() {
		if e.mayDetect(s.targets.Target(), s) {
			return false
		}
	}
	return true
}

// mayDetect reports whether target t may be met: some initialisation
// alternative is consistent, the target's literals are consistent (for a
// host, plus the cell's good output under its assignment), and the
// resulting difference may reach a primary output.
func (e *Engine) mayDetect(t *fault.Target, s *scratch) bool {
	if t.Inits != 0 {
		init := false
		for m := t.Inits; m != 0 && !init; m &= m - 1 {
			s.conds = t.InitConds(s.conds[:0], uint(bits.TrailingZeros64(m)))
			init = !e.conflicting(s.litsOf(s.conds))
		}
		if !init {
			return false
		}
	}
	lits := s.litsOf(t.Conds)
	if t.Effect == fault.EffectHost {
		lits = append(lits, MkLit(t.Gate.Out.ID, t.Gate.Type.TT.Eval(t.Asg)))
		s.lits = lits
	}
	if e.conflicting(lits) {
		return false
	}
	E := eset{e: e, lits: lits}
	if t.Effect == fault.EffectBranch {
		return e.reachPOFromGate(t.Gate, t.Pin, E, s)
	}
	return e.reachPO(t.Site(), E, s)
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
func (e *Engine) reachPO(origin *netlist.Net, E eset, s *scratch) bool {
	if origin.IsPO {
		return true
	}
	return e.bfs(origin, e.cone(origin.ID), E, s)
}

// reachPOFromGate is the branch-fault variant: the difference enters
// the circuit only through pin `pin` of gate g.
func (e *Engine) reachPOFromGate(g *netlist.Gate, pin int, E eset, s *scratch) bool {
	cone := e.cone(g.Out.ID)
	if !e.edgePasses(g, pin, cone, E) {
		return false
	}
	if g.Out.IsPO {
		return true
	}
	return e.bfs(g.Out, cone, E, s)
}

// scratch is one query's working memory: the fault's target iterator,
// the condition and literal buffers, and the BFS queue and reached marks.
// A net is reached when its stamp equals the current epoch, so a new BFS
// forgets every mark by bumping the epoch instead of clearing.
type scratch struct {
	targets fault.Targets
	conds   []fault.Cond
	lits    []Lit
	stamp   []uint32
	epoch   uint32
	queue   []int32
}

// litsOf fills the literal buffer with the literals of conds.
func (s *scratch) litsOf(conds []fault.Cond) []Lit {
	s.lits = s.lits[:0]
	for _, c := range conds {
		s.lits = append(s.lits, MkLit(c.Net.ID, c.Val))
	}
	return s.lits
}

// begin starts a BFS with no net reached. When the epoch counter wraps,
// the stamps are cleared, so a stamp left from 2^32 BFSs ago cannot equal
// the reused epoch.
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
func (e *Engine) bfs(start *netlist.Net, cone []uint64, E eset, s *scratch) bool {
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
