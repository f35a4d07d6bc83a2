package implic

import "dfmresyn/internal/netlist"

// prop is a ternary constraint propagator over the circuit. Each net
// holds 0, 1 or unknown (-1); processing a gate enumerates the truth
// table completions consistent with the known values and forces any
// input or output that takes the same value in every completion. An
// empty completion set is a contradiction. The propagator is sound but
// deliberately incomplete (it reasons one gate at a time), which is
// exactly what makes it cheap enough to run once per literal.
type prop struct {
	e *Engine

	// base is the fixpoint of the known constants alone; every
	// per-literal run starts from a copy of it.
	base []int8
	val  []int8

	touched  []int32 // nets assigned during the current run
	queue    []int32 // pending gate IDs, drained FIFO
	head     int
	inq      []bool
	conflict bool
}

func newProp(e *Engine) *prop {
	return &prop{
		e:    e,
		base: make([]int8, len(e.c.Nets)),
		val:  make([]int8, len(e.c.Nets)),
		inq:  make([]bool, len(e.c.Gates)),
	}
}

// rebase recomputes the constants-only fixpoint from scratch. Every net
// it settles is itself a constant, so the fixpoint is folded straight
// back into the engine's constant table.
func (p *prop) rebase() {
	for i := range p.val {
		p.val[i] = -1
	}
	p.touched = p.touched[:0]
	p.conflict = false
	// Seed every gate once: cells with constant truth tables (or
	// constant-making fanin) fire without any assigned net.
	for _, g := range p.e.c.Gates {
		p.enqueue(g)
	}
	for n, v := range p.e.constVal {
		if v >= 0 {
			p.assign(n, v)
		}
	}
	p.drain()
	p.fold()
	copy(p.base, p.val)
}

// addConst records a newly proven constant and extends the base with it:
// the constant is assigned on top of the current base fixpoint and only
// its neighbours are drained, instead of re-seeding every gate as rebase
// does. The propagator is monotone (more known values only narrow a
// gate's completions), so the result is the fixpoint rebase would compute
// from the enlarged constant set.
func (p *prop) addConst(net int, val uint8) {
	p.e.setConst(net, val)
	copy(p.val, p.base)
	p.touched = p.touched[:0]
	p.conflict = false
	p.assign(net, int8(val))
	p.drain()
	p.fold()
	for _, t := range p.touched {
		p.base[t] = p.val[t]
	}
}

// fold copies every net the last constants-only run settled into the
// engine's constant table: a value that follows from constants alone is
// itself a constant.
func (p *prop) fold() {
	if p.conflict {
		panic("implic: constant set is self-contradictory")
	}
	for _, t := range p.touched {
		if p.e.constVal[t] < 0 {
			p.e.constVal[t] = p.val[t]
		}
	}
}

// consequences assumes literal l on top of the constant base and returns
// every non-constant literal it forces (in discovery order), or ok=false
// when the assumption is contradictory.
func (p *prop) consequences(l Lit) (forced []Lit, ok bool) {
	copy(p.val, p.base)
	p.touched = p.touched[:0]
	p.conflict = false
	p.assign(l.Net(), int8(l.Val()))
	p.drain()
	if p.conflict {
		return nil, false
	}
	for _, t := range p.touched {
		if int(t) != l.Net() {
			forced = append(forced, MkLit(int(t), uint8(p.val[t])))
		}
	}
	return forced, true
}

func (p *prop) assign(n int, v int8) {
	if p.conflict {
		return
	}
	if cur := p.val[n]; cur >= 0 {
		if cur != v {
			p.conflict = true
		}
		return
	}
	p.val[n] = v
	p.touched = append(p.touched, int32(n))
	net := p.e.c.Nets[n]
	if net.Driver != nil {
		p.enqueue(net.Driver)
	}
	for _, pin := range net.Fanout {
		p.enqueue(pin.Gate)
	}
}

func (p *prop) enqueue(g *netlist.Gate) {
	if !p.inq[g.ID] {
		p.inq[g.ID] = true
		p.queue = append(p.queue, int32(g.ID))
	}
}

// drain processes queued gates to fixpoint. After a conflict it keeps
// popping (to clear the inq flags) but stops doing work.
func (p *prop) drain() {
	for p.head < len(p.queue) {
		g := p.e.c.Gates[p.queue[p.head]]
		p.head++
		p.inq[g.ID] = false
		if !p.conflict {
			p.processGate(g)
		}
	}
	p.queue = p.queue[:0]
	p.head = 0
}

// processGate enumerates the completions of g's unknown pins consistent
// with its truth table and the known output, then forces any pin that is
// uniform across them. Duplicate fanin nets are handled soundly: the
// enumeration over-approximates the feasible set (it allows the copies
// to disagree), which can only weaken the derived implications, never
// produce a false conflict or a false forcing.
func (p *prop) processGate(g *netlist.Gate) {
	tt := g.Type.TT
	n := len(g.Fanin)
	mask := uint(1)<<uint(n) - 1
	var known, kvals uint
	for i, in := range g.Fanin {
		if v := p.val[in.ID]; v >= 0 {
			known |= 1 << uint(i)
			kvals |= uint(v) << uint(i)
		}
	}
	outv := p.val[g.Out.ID]
	free := mask &^ known

	count := 0
	andIn := mask
	var orIn uint
	out0, out1 := false, false
	sub := free
	for {
		a := kvals | sub
		ov := int8(tt.Eval(a))
		if outv < 0 || ov == outv {
			count++
			andIn &= a
			orIn |= a
			if ov == 1 {
				out1 = true
			} else {
				out0 = true
			}
		}
		if sub == 0 {
			break
		}
		sub = (sub - 1) & free
	}
	if count == 0 {
		p.conflict = true
		return
	}
	if outv < 0 && out0 != out1 {
		if out1 {
			p.assign(g.Out.ID, 1)
		} else {
			p.assign(g.Out.ID, 0)
		}
	}
	for i := 0; i < n; i++ {
		if known>>uint(i)&1 == 1 {
			continue
		}
		switch {
		case andIn>>uint(i)&1 == 1:
			p.assign(g.Fanin[i].ID, 1)
		case orIn>>uint(i)&1 == 0:
			p.assign(g.Fanin[i].ID, 0)
		}
		if p.conflict {
			return
		}
	}
}
