// Package faultsim is a 64-way parallel-pattern fault simulator for the
// four fault models of the DFM fault universe (stuck-at, transition,
// bridging, cell-aware). It simulates blocks of up to 64 tests at once and
// supports fault dropping.
package faultsim

import (
	"math/bits"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/sim"
)

// Test is one test in the target test set T. Vec is the applied vector (one
// bit per PI, indexed as Circuit.PIs). Init, when non-nil, is the
// initialization vector of a two-pattern test; single-pattern tests leave
// it nil. A two-pattern test counts as one test, as in the paper's column T.
type Test struct {
	Init []uint8
	Vec  []uint8
}

// Engine simulates one circuit. It is not safe for concurrent use: the
// faulty-value overlay and the event queue are reused across calls.
//
// Every fault model acts as a flip of one net, its site, in the patterns of
// an activation mask (see activation). Simulation is event-driven. Faulty
// values live in an overlay over the block's good values: fv[n] holds net
// n's faulty word only while stamp[n] equals the current epoch, so starting
// a new propagation is one epoch increment rather than a copy of every net
// word. A net whose faulty word differs from its good word schedules its
// fanout gates on a min-queue of topological positions; propagation ends
// when the queue drains, so a call costs the part of the site's fanout cone
// that the flip actually reaches.
type Engine struct {
	c     *netlist.Circuit
	sim   *sim.Simulator
	order []*netlist.Gate
	pos   []int32 // gate ID -> position in order

	fv     []logic.Word // per net, faulty word when stamp[n] == epoch
	stamp  []uint32     // per net
	queued []uint32     // per gate position: == epoch once scheduled
	epoch  uint32
	queue  []int32        // scheduled gate positions, a binary min-heap
	outs   []*netlist.Net // PO nets given a faulty word this call
}

// New builds an engine for the circuit.
func New(c *netlist.Circuit) *Engine {
	s := sim.New(c)
	order := s.Order()
	pos := make([]int32, len(c.Gates))
	for i, g := range order {
		pos[g.ID] = int32(i)
	}
	return &Engine{
		c:      c,
		sim:    s,
		order:  order,
		pos:    pos,
		fv:     make([]logic.Word, len(c.Nets)),
		stamp:  make([]uint32, len(c.Nets)),
		queued: make([]uint32, len(order)),
	}
}

// Circuit returns the engine's circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// Block holds the good-circuit simulation of up to 64 tests.
type Block struct {
	N        int          // number of tests in the block
	Valid    logic.Word   // bit p set for p < N
	HasInit  logic.Word   // bit p set if test p is two-pattern
	InitVals []logic.Word // good values per net, initialization phase
	Vals     []logic.Word // good values per net, final phase
}

// SimBlock good-simulates up to 64 tests.
func (e *Engine) SimBlock(tests []Test) *Block {
	if len(tests) > 64 {
		panic("faultsim: block larger than 64 tests")
	}
	b := &Block{N: len(tests)}
	npi := len(e.c.PIs)
	initW := make([]logic.Word, npi)
	vecW := make([]logic.Word, npi)
	for p, t := range tests {
		b.Valid |= 1 << uint(p)
		if len(t.Vec) != npi {
			panic("faultsim: test vector length mismatch")
		}
		for i := 0; i < npi; i++ {
			if t.Vec[i]&1 == 1 {
				vecW[i] |= 1 << uint(p)
			}
		}
		if t.Init != nil {
			b.HasInit |= 1 << uint(p)
			for i := 0; i < npi; i++ {
				if t.Init[i]&1 == 1 {
					initW[i] |= 1 << uint(p)
				}
			}
		}
	}
	b.Vals = e.sim.Run(vecW)
	b.InitVals = e.sim.Run(initW)
	return b
}

// Detects returns the word of tests in the block that detect f: its
// activation mask ANDed with the PO difference of flipping its site there.
func (e *Engine) Detects(f *fault.Fault, b *Block) logic.Word {
	site, mask := activation(f, b)
	if mask == 0 {
		return 0
	}
	return mask & e.observe(site, mask, b)
}

// activation returns the net whose flip models f in block b, and the mask of
// valid patterns in which f flips it. A branch fault's forced pin is seen by
// one gate only, so its site is that gate's output; a bridge's victim takes
// the aggressor's good value and is never re-evaluated, so even a feedback
// bridge flips one net.
//
// Parallel-pattern simulation never mixes patterns, so f's detection word is
// mask ANDed with the PO-difference word of flipping the site in any
// superset of mask. Faults on one site therefore share one propagation.
func activation(f *fault.Fault, b *Block) (*netlist.Net, logic.Word) {
	switch f.Model {
	case fault.StuckAt, fault.Transition:
		good := b.Vals[f.Net.ID]
		flip := good
		if f.Value&1 == 1 {
			flip = ^good
		}
		if f.Model == fault.Transition {
			// Launch condition: the site held Value in the init phase and
			// should move to ~Value; the slow site keeps Value.
			init := b.InitVals[f.Net.ID]
			if f.Value&1 == 0 {
				init = ^init
			}
			flip &= b.HasInit & init
		}
		flip &= b.Valid
		g := f.BranchGate
		if g == nil || flip == 0 {
			return f.Net, flip
		}
		// Only the branch's (gate, pin) sees the forced word; the stem
		// keeps its good value.
		var buf [8]logic.Word
		in := buf[:len(g.Fanin)]
		for i, fn := range g.Fanin {
			in[i] = b.Vals[fn.ID]
		}
		in[f.BranchPin] = good ^ flip
		return g.Out, (g.Type.TT.EvalWord(in) ^ b.Vals[g.Out.ID]) & b.Valid

	case fault.Bridge:
		return f.Net, (b.Vals[f.Net.ID] ^ b.Vals[f.Other.ID]) & b.Valid

	case fault.CellAware:
		return f.Gate.Out, cellAwareActivation(f, b)
	}
	return nil, 0
}

// observe flips net n in the patterns of mask, propagates the change and
// returns the word of patterns in which some PO differs from the good
// circuit.
func (e *Engine) observe(n *netlist.Net, mask logic.Word, b *Block) logic.Word {
	e.begin()
	e.set(n, b.Vals[n.ID]^mask, b)

	// Propagate in topological order until no scheduled gate is left. A
	// gate is popped only after every gate before it in the order, so its
	// fanin words are final when it is evaluated. The site's driver lies
	// outside its fanout cone, so the site itself is never re-evaluated.
	var buf [8]logic.Word
	for len(e.queue) > 0 {
		g := e.order[e.pop()]
		in := buf[:len(g.Fanin)]
		for i, fn := range g.Fanin {
			in[i] = e.val(fn, b)
		}
		e.set(g.Out, g.Type.TT.EvalWord(in), b)
	}

	// Only PO nets that received a faulty word can differ from the good
	// circuit; a site on a PO net is observed directly.
	var det logic.Word
	for _, po := range e.outs {
		det |= e.fv[po.ID] ^ b.Vals[po.ID]
	}
	return det
}

// begin starts a fresh overlay: every stamp from an earlier call becomes
// stale. On the (rare) epoch wrap-around the stamps are cleared so that no
// stale stamp can equal a reused epoch.
func (e *Engine) begin() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.stamp)
		clear(e.queued)
		e.epoch = 1
	}
	e.queue = e.queue[:0]
	e.outs = e.outs[:0]
}

// val returns net n's faulty word: the overlay word if n changed in this
// call, else its good word.
func (e *Engine) val(n *netlist.Net, b *Block) logic.Word {
	if e.stamp[n.ID] == e.epoch {
		return e.fv[n.ID]
	}
	return b.Vals[n.ID]
}

// set records w as net n's faulty word and schedules n's fanout gates when
// w differs from the good word. A word equal to the good word is dropped:
// evaluating the fanout would reproduce the good values.
func (e *Engine) set(n *netlist.Net, w logic.Word, b *Block) {
	if w == b.Vals[n.ID] {
		return
	}
	e.stamp[n.ID] = e.epoch
	e.fv[n.ID] = w
	if n.IsPO {
		e.outs = append(e.outs, n)
	}
	for _, pin := range n.Fanout {
		e.schedule(pin.Gate)
	}
}

// schedule queues gate g once per call.
func (e *Engine) schedule(g *netlist.Gate) {
	p := e.pos[g.ID]
	if e.queued[p] == e.epoch {
		return
	}
	e.queued[p] = e.epoch
	q := append(e.queue, p)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the smallest scheduled position.
func (e *Engine) pop() int32 {
	q := e.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		m := l
		if r := l + 1; r < len(q) && q[r] < q[l] {
			m = r
		}
		if q[i] <= q[m] {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	e.queue = q
	return top
}

// maxCellInputs bounds the host gates of cell-aware faults: the widest
// library cell has 4 inputs, so a gate's input-minterm words fit in a
// 16-word array on the stack.
const maxCellInputs = 4

// minterms holds a gate's input-minterm words: word a has bit p set exactly
// when pattern p applies input assignment a (pin i is bit i of a).
type minterms [1 << maxCellInputs]logic.Word

// cellAwareActivation computes the word of tests whose gate-input
// assignments activate the cell-aware fault (output flip at the final
// phase). It works on whole words: the patterns applying a set of input
// assignments are the OR of those assignments' minterm words.
func cellAwareActivation(f *fault.Fault, b *Block) logic.Word {
	beh := f.Behavior
	var final minterms
	final.fill(f.Gate, b.Vals)
	act := final.or(beh.StaticMask)
	if len(beh.PairMask) > 0 && b.HasInit != 0 {
		var init minterms
		init.fill(f.Gate, b.InitVals)
		var dyn logic.Word
		for a1, m := range beh.PairMask {
			if m != 0 && init[a1] != 0 {
				dyn |= init[a1] & final.or(m)
			}
		}
		act |= b.HasInit & dyn
	}
	return act & b.Valid
}

// fill builds gate g's minterm words from the per-net words vals with one
// AND pass per input: input i splits every minterm built so far in two.
func (m *minterms) fill(g *netlist.Gate, vals []logic.Word) {
	m[0] = logic.AllOnes
	for i, in := range g.Fanin {
		w := vals[in.ID]
		half := 1 << uint(i)
		for a := 0; a < half; a++ {
			m[a|half] = m[a] & w
			m[a] &^= w
		}
	}
}

// or returns the OR of the minterm words whose assignment bits are set in
// mask.
func (m *minterms) or(mask uint64) logic.Word {
	var w logic.Word
	for ; mask != 0; mask &= mask - 1 {
		w |= m[bits.TrailingZeros64(mask)]
	}
	return w
}
