// Package implic builds a static implication engine over a gate-level
// netlist. For every literal (net, value) it derives the set of literals
// that must hold in any consistent assignment containing it: direct
// implications come from ternary constraint propagation through each
// cell's truth table, and the set is closed under the contrapositive law
// (a=>b implies !b=>!a) and transitivity, which together yield the
// indirect ("extended") implications of SOCRATES-style static learning.
// Literals whose closure is self-contradictory are impossible, so their
// net is a static constant.
//
// The closure supports FIRE-style fault-independent redundancy
// identification (see screen.go): a fault whose excitation or propagation
// requirements conflict with the closure is undetectable, proven with
// zero test-generation searches. Everything here is deterministic — the
// build visits nets and gates in ID order only, so the same circuit
// always produces the same closure regardless of prior runs or worker
// counts.
package implic

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"

	"dfmresyn/internal/netlist"
)

// Lit encodes the literal net=val as 2*netID+val.
type Lit int32

// MkLit builds the literal net=val.
func MkLit(net int, val uint8) Lit { return Lit(net<<1) | Lit(val&1) }

// Net returns the literal's net ID.
func (l Lit) Net() int { return int(l >> 1) }

// Val returns the literal's value.
func (l Lit) Val() uint8 { return uint8(l & 1) }

// Neg returns the opposite literal on the same net.
func (l Lit) Neg() Lit { return l ^ 1 }

// MaxLiterals bounds the closure size: above it New refuses to build the
// engine (the transitive closure stores one bitset per literal and the
// screen one fanout-cone bitset per net, so memory is quadratic in the
// literal count). 16384 literals cost at most 32 MiB of closure plus 8 MiB
// of fanout cones, far above every bundled benchmark (aes_core has ~1.5k
// literals).
const MaxLiterals = 16384

// Stats summarizes what the build learned.
type Stats struct {
	Nets         int // nets in the circuit
	Constants    int // nets proven statically constant
	Implications int // implication pairs in the closure (excluding x=>x)
}

// Engine holds the implication closure of one circuit. A nil *Engine is
// valid and behaves as "nothing learned" on every query.
type Engine struct {
	c     *netlist.Circuit
	order []*netlist.Gate // topological gate order

	// constVal[net] is the proven constant value of the net, or -1.
	constVal []int8
	// closure[l] is a bitset over literals: bit m set means l => m.
	// Literals of constant nets keep their last computed set but are
	// never consulted (constVal wins).
	closure [][]uint64
	words   int // words per closure bitset

	// fanout holds every net's transitive fanout cone — the net itself
	// plus every net a difference at it can reach — as a bitset over
	// nets: coneWords words per net, net n's row first at n*coneWords.
	fanout    []uint64
	coneWords int
	// scratch pools the screen's per-query working memory (*scratch), so
	// concurrent callers never share it and no query allocates it. It is
	// a separate allocation: the runtime's registry of pools keeps a used
	// pool reachable until two garbage collections later, and a pool
	// embedded here would keep the whole engine alive with it.
	scratch *sync.Pool

	stats Stats
}

// New builds the implication closure of c. It returns nil when the
// circuit is empty or too large for the quadratic closure (see
// MaxLiterals); callers must treat a nil engine as "no static facts".
// The circuit must be acyclic and pass netlist.Check-level structural
// validity — the builder levelizes it.
func New(c *netlist.Circuit) *Engine {
	nNets := len(c.Nets)
	if nNets == 0 || 2*nNets > MaxLiterals {
		return nil
	}
	e := &Engine{
		c:        c,
		order:    c.Levelize(),
		constVal: make([]int8, nNets),
		words:    (2*nNets + 63) / 64,
	}
	for i := range e.constVal {
		e.constVal[i] = -1
	}
	e.build()
	e.buildFanout()
	e.scratch = &sync.Pool{New: func() any { return &scratch{stamp: make([]uint32, nNets)} }}
	return e
}

// Circuit returns the circuit the closure was built for.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// Stats returns build statistics. Safe on a nil engine.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return e.stats
}

// ConstNet returns the statically proven constant value of a net and
// whether one is known. Safe on a nil engine.
func (e *Engine) ConstNet(net int) (val uint8, known bool) {
	if e == nil || e.constVal[net] < 0 {
		return 0, false
	}
	return uint8(e.constVal[net]), true
}

// Impossible reports whether the literal can hold in no consistent
// assignment (its net is constant at the opposite value).
func (e *Engine) Impossible(l Lit) bool {
	return e != nil && e.constVal[l.Net()] == int8(l.Val()^1)
}

// Implies reports whether literal a statically forces literal b. It is
// reflexive, and constants are implied by everything. Safe on a nil
// engine (always false except a == b).
func (e *Engine) Implies(a, b Lit) bool {
	if a == b {
		return true
	}
	if e == nil {
		return false
	}
	if e.constVal[b.Net()] == int8(b.Val()) {
		return true
	}
	if e.constVal[a.Net()] >= 0 {
		// A constant-net literal either always holds (then it implies
		// only what everything implies) or is impossible (then it
		// vacuously implies everything).
		return e.constVal[a.Net()] == int8(a.Val()^1)
	}
	return e.closure[a][b>>6]>>(uint(b)&63)&1 == 1
}

// ForEachImplied calls fn for every literal implied by l, in net order,
// excluding l itself and literals on constant nets (those are available
// through ForEachConstant). Safe on a nil engine (no calls).
func (e *Engine) ForEachImplied(l Lit, fn func(net int, val uint8)) {
	if e == nil || e.constVal[l.Net()] >= 0 {
		return
	}
	for wi, w := range e.closure[l] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			m := Lit(wi*64 + b)
			if m == l || e.constVal[m.Net()] >= 0 {
				continue
			}
			fn(m.Net(), m.Val())
		}
	}
}

// ForEachConstant calls fn for every statically constant net in net
// order. Safe on a nil engine (no calls).
func (e *Engine) ForEachConstant(fn func(net int, val uint8)) {
	if e == nil {
		return
	}
	for n, v := range e.constVal {
		if v >= 0 {
			fn(n, uint8(v))
		}
	}
}

// Fingerprint hashes the constants and the full closure, for determinism
// checks: two builds over the same circuit must produce equal values.
func (e *Engine) Fingerprint() uint64 {
	if e == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range e.constVal {
		h.Write([]byte{uint8(v + 1)})
	}
	for l, set := range e.closure {
		if e.constVal[Lit(l).Net()] >= 0 {
			continue
		}
		for _, w := range set {
			for i := 0; i < 8; i++ {
				buf[i] = byte(w >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// buildFanout computes every net's fanout cone. A gate output's cone is the
// net plus the union of its readers' output cones, so visiting gates in
// reverse topological order finds each reader's cone complete; undriven
// nets (the primary inputs) read only gate outputs and come last.
func (e *Engine) buildFanout() {
	e.coneWords = (len(e.c.Nets) + 63) / 64
	e.fanout = make([]uint64, len(e.c.Nets)*e.coneWords)
	add := func(n *netlist.Net) {
		row := e.cone(n.ID)
		row[n.ID>>6] |= 1 << (uint(n.ID) & 63)
		for _, pin := range n.Fanout {
			for w, b := range e.cone(pin.Gate.Out.ID) {
				row[w] |= b
			}
		}
	}
	for i := len(e.order) - 1; i >= 0; i-- {
		add(e.order[i].Out)
	}
	for _, n := range e.c.Nets {
		if n.Driver == nil {
			add(n)
		}
	}
}

// cone returns net's fanout-cone bitset (see Engine.fanout).
func (e *Engine) cone(net int) []uint64 {
	return e.fanout[net*e.coneWords : (net+1)*e.coneWords]
}

// inCone reports whether net is a member of the cone bitset.
func inCone(cone []uint64, net int) bool { return cone[net>>6]>>(uint(net)&63)&1 == 1 }

// build runs the whole pipeline to fixpoint: every round of closure
// construction may prove new constants, which strengthen the next
// round's propagation. Each extra round adds at least one constant, so
// the loop terminates within len(Nets) rounds (in practice one or two).
func (e *Engine) build() {
	p := newProp(e)
	for {
		p.rebase()
		if !e.closeOnce(p) {
			break
		}
	}
	e.stats.Nets = len(e.c.Nets)
	for _, v := range e.constVal {
		if v >= 0 {
			e.stats.Constants++
		}
	}
	for l := range e.closure {
		if e.constVal[Lit(l).Net()] >= 0 {
			continue
		}
		for _, w := range e.closure[l] {
			e.stats.Implications += bits.OnesCount64(w)
		}
		e.stats.Implications-- // drop l => l
	}
}

// closeOnce performs one full closure construction and reports whether
// it discovered new constants (requiring another round).
func (e *Engine) closeOnce(p *prop) bool {
	nLits := 2 * len(e.c.Nets)
	adj := make([][]Lit, nLits)

	// Direct implications: propagate each assumable literal through the
	// circuit and record every value it forces. A contradiction means
	// the literal is impossible, i.e. the net is constant.
	newConst := false
	for l := Lit(0); int(l) < nLits; l++ {
		if e.constVal[l.Net()] >= 0 {
			continue
		}
		forced, ok := p.consequences(l)
		if !ok {
			p.addConst(l.Net(), l.Val()^1)
			newConst = true
			continue
		}
		adj[l] = forced
	}
	if newConst {
		// Constants changed mid-sweep; restart with the stronger base.
		return true
	}

	// Contrapositive closure: a=>b adds !b=>!a. Propagation alone is
	// not symmetric (e.g. AND out=1 forces in=1, but in=0 only forces
	// out=0 via this law when the cell hides it behind unknowns).
	for a := Lit(0); int(a) < nLits; a++ {
		for _, b := range adj[a] {
			if e.constVal[b.Net()] < 0 {
				adj[b.Neg()] = append(adj[b.Neg()], a.Neg())
			}
		}
	}
	for _, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}

	// Transitive closure over the implication graph: condense strongly
	// connected components (equivalent literals), then union reachable
	// sets in reverse topological order. Tarjan emits SCCs children-
	// first, so a single pass over the completion order suffices.
	comp, comps := tarjan(adj)
	closure := make([][]uint64, nLits)
	compSet := make([][]uint64, len(comps))
	for ci, members := range comps {
		set := make([]uint64, e.words)
		for _, m := range members {
			set[m>>6] |= 1 << (uint(m) & 63)
			for _, s := range adj[m] {
				if sc := comp[s]; sc != ci {
					for w, sw := range compSet[sc] {
						set[w] |= sw
					}
				} else {
					set[s>>6] |= 1 << (uint(s) & 63)
				}
			}
		}
		compSet[ci] = set
		for _, m := range members {
			closure[m] = set
		}
	}
	e.closure = closure

	// Self-contradiction sweep: a literal implying its own negation, or
	// both polarities of any net, is impossible.
	for l := Lit(0); int(l) < nLits; l++ {
		if e.constVal[l.Net()] >= 0 {
			continue
		}
		set := closure[l]
		bad := set[l.Neg()>>6]>>(uint(l.Neg())&63)&1 == 1
		if !bad {
			for _, w := range set {
				if w&(w>>1)&0x5555555555555555 != 0 {
					bad = true
					break
				}
			}
		}
		if bad {
			e.setConst(l.Net(), l.Val()^1)
			newConst = true
		}
	}
	return newConst
}

func (e *Engine) setConst(net int, val uint8) {
	if e.constVal[net] == int8(val^1) {
		// Both polarities impossible would mean the circuit itself is
		// inconsistent, which cannot happen for a combinational netlist
		// (every complete PI assignment is consistent). Guard anyway.
		panic(fmt.Sprintf("implic: net %d proven constant both 0 and 1", net))
	}
	e.constVal[net] = int8(val)
}

// tarjan condenses the literal implication graph into strongly connected
// components using an iterative Tarjan walk (explicit stack: benchmark
// implication chains can be thousands of literals deep). It returns the
// component of each literal and the members of each component in
// completion (reverse topological) order.
func tarjan(adj [][]Lit) (comp []int, comps [][]Lit) {
	n := len(adj)
	comp = make([]int, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []Lit
	next := int32(0)

	type frame struct {
		v  Lit
		ai int
	}
	var frames []frame
	for root := Lit(0); int(root) < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ai == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ai < len(adj[v]) {
				w := adj[v][f.ai]
				f.ai++
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && low[v] > index[w] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var members []Lit
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(comps)
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
				comps = append(comps, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[p] > low[v] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, comps
}
