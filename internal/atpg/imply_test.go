package atpg

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

// searchConfig sets a podem up for one search as GenerateWith does: the
// target (nil for a justification) and the conditions.
type searchConfig struct {
	name string
	set  func(p *podem)
}

// searchConfigs lists search set-ups on c. Over every net there are a stem
// and, where the net fans out, a branch stuck-at; a transition fault's
// detection search and its initialisation justification; bridges whose
// aggressor lies before the victim in topological order, after it outside
// its fanout, and in its fanout (a feedback bridge); and a justification of
// the net with the extra condition. Over every gate there is a cell-aware
// fault hosted there. Detection searches impose extra after the target's
// own conditions, as GenerateWith does.
func searchConfigs(t testing.TB, rng *rand.Rand, c *netlist.Circuit, extra []fault.Cond) []searchConfig {
	rank := make([]int, len(c.Nets)) // topological position; PIs first
	for i, g := range c.Levelize() {
		rank[g.Out.ID] = i + 1
	}
	// aim configures p for target k of f, with the extra conditions.
	aim := func(p *podem, f *fault.Fault, k int) {
		p.targets.Reset(f)
		for ; k >= 0; k-- {
			if !p.targets.Next() {
				t.Fatalf("%v: too few targets", f)
			}
		}
		tg := p.targets.Target()
		p.t, p.conds = tg, append(append(p.conds[:0], tg.Conds...), extra...)
	}
	var cfgs []searchConfig
	add := func(name string, set func(p *podem)) {
		cfgs = append(cfgs, searchConfig{name, set})
	}
	for _, n := range c.Nets {
		v := uint8(rng.Intn(2))
		add("stem "+n.Name, func(p *podem) {
			aim(p, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}, 0)
		})
		if len(n.Fanout) > 0 {
			pin := n.Fanout[rng.Intn(len(n.Fanout))]
			add("branch "+n.Name, func(p *podem) {
				aim(p, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v,
					BranchGate: pin.Gate, BranchPin: pin.Pin}, 0)
			})
		}
		tf := &fault.Fault{Model: fault.Transition, Net: n, Value: v}
		add("transition "+n.Name, func(p *podem) { aim(p, tf, 0) })
		add("transition init "+n.Name, func(p *podem) {
			aim(p, tf, 0)
			p.t, p.conds = nil, p.t.InitConds(p.conds[:0], 0)
		})

		// Split the other nets into those before n, n's fanout region
		// and the rest after n.
		inFanout := map[*netlist.Net]bool{n: true}
		queue := []*netlist.Net{n}
		for i := 0; i < len(queue); i++ {
			for _, pin := range queue[i].Fanout {
				if out := pin.Gate.Out; !inFanout[out] {
					inFanout[out] = true
					queue = append(queue, out)
				}
			}
		}
		var before, after []*netlist.Net
		for _, m := range c.Nets {
			switch {
			case rank[m.ID] < rank[n.ID] || rank[m.ID] == rank[n.ID] && m.ID < n.ID:
				before = append(before, m)
			case !inFanout[m]:
				after = append(after, m)
			}
		}
		bridge := func(kind string, others []*netlist.Net) {
			if len(others) == 0 {
				return
			}
			m, k := others[rng.Intn(len(others))], rng.Intn(2) // target 0: victim 1
			add("bridge "+n.Name+" "+kind, func(p *podem) {
				aim(p, &fault.Fault{Model: fault.Bridge, Net: n, Other: m}, k)
			})
		}
		bridge("before", before)
		bridge("after", after)
		bridge("feedback", queue[1:])
		add("justify "+n.Name, func(p *podem) {
			p.t, p.conds = nil, append(append(p.conds[:0], fault.Cond{Net: n, Val: v}), extra...)
		})
	}
	for _, g := range c.Gates {
		asg := uint(rng.Intn(1 << uint(len(g.Fanin))))
		beh := &switchsim.Behavior{Inputs: len(g.Fanin), StaticMask: 1 << asg}
		add("host "+g.Name, func(p *podem) {
			aim(p, &fault.Fault{Model: fault.CellAware, Gate: g, Behavior: beh}, 0)
		})
	}
	return cfgs
}

// implyStats counts the moves driveImply made.
type implyStats struct {
	decisions, flips, deepReleases int
}

// driveImply starts a search on p for cfg, then makes the search's moves
// from ops: an even op byte decides a free cone PI (its other bits pick the
// PI and the value), an odd one backtracks as the search does, releasing
// every flipped decision on top of the stack and flipping the one below.
// After every move p re-implies event-driven, and every cone net's good and
// composite value must equal ref's whole-cone implication from scratch of
// the same assignment.
func driveImply(t testing.TB, p, ref *podem, cfg searchConfig, ops []byte, st *implyStats) {
	t.Helper()
	for _, e := range []*podem{p, ref} {
		cfg.set(e)
		for i := range e.piVal {
			e.piVal[i] = -1
		}
		e.stack = e.stack[:0]
		e.buildCone()
	}
	p.implyCone()
	var free []int
	for step, op := range ops {
		free = free[:0]
		for _, i := range p.conePIs {
			if p.piVal[i] == -1 {
				free = append(free, i)
			}
		}
		if op&1 == 0 && len(free) > 0 {
			p.decide(free[int(op>>2)%len(free)], op>>1&1)
			st.decisions++
		} else {
			depth := len(p.stack)
			if !p.backtrack() {
				continue
			}
			st.flips++
			if depth-len(p.stack) >= 2 {
				st.deepReleases++
			}
		}
		p.imply()
		copy(ref.piVal, p.piVal)
		ref.implyCone()
		check := func(n *netlist.Net) {
			if p.good[n.ID] != ref.good[n.ID] || p.vals[n.ID] != ref.vals[n.ID] {
				t.Fatalf("%s, step %d: net %s good/vals %v/%v, from scratch %v/%v",
					cfg.name, step, n.Name, p.good[n.ID], p.vals[n.ID], ref.good[n.ID], ref.vals[n.ID])
			}
		}
		for _, i := range p.conePIs {
			check(p.c.PIs[i])
		}
		for _, g := range p.cone {
			check(g.Out)
		}
	}
}

// randomOps draws n search moves, two decisions to each backtrack on
// average, so that stacks grow deep enough for multi-level releases.
func randomOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Intn(256)) &^ 1
		if rng.Intn(3) == 0 {
			ops[i] |= 1
		}
	}
	return ops
}

// TestImplyMatchesFromScratch checks event-driven implication against a
// whole-cone implication from scratch after every decision, flip and
// release of random search move sequences, on random netlists, for every
// target effect and for justification (see searchConfigs).
func TestImplyMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var st implyStats
	for trial := 0; trial < 20; trial++ {
		c := wideCircuit(rng, 8, 40)
		order, levels := c.Levelize(), c.Levels()
		p := newPodem(c, order, levels, 0)
		ref := newPodem(c, order, levels, 0)
		extra := []fault.Cond{{Net: c.Nets[rng.Intn(len(c.Nets))], Val: uint8(rng.Intn(2))}}
		for _, cfg := range searchConfigs(t, rng, c, extra) {
			driveImply(t, p, ref, cfg, randomOps(rng, 40), &st)
		}
	}
	if st.decisions == 0 || st.flips == 0 || st.deepReleases == 0 {
		t.Fatalf("moves %+v: every kind must occur", st)
	}
}

// FuzzImply is TestImplyMatchesFromScratch over fuzzer-chosen netlists and
// move sequences.
func FuzzImply(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), []byte{0, 2, 4, 6, 1, 8, 1, 1, 10, 1})
	f.Add(int64(7), uint8(3), uint8(12), []byte{2, 2, 2, 1, 1, 1, 1})
	f.Add(int64(99), uint8(9), uint8(45), []byte{4, 8, 12, 16, 20, 1, 1, 24, 1, 1, 1, 28})
	f.Fuzz(func(t *testing.T, seed int64, pis, gates uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		c := wideCircuit(rng, 1+int(pis%10), 1+int(gates%48))
		order, levels := c.Levelize(), c.Levels()
		p := newPodem(c, order, levels, 0)
		ref := newPodem(c, order, levels, 0)
		extra := []fault.Cond{{Net: c.Nets[rng.Intn(len(c.Nets))], Val: uint8(rng.Intn(2))}}
		var st implyStats
		for _, cfg := range searchConfigs(t, rng, c, extra) {
			driveImply(t, p, ref, cfg, ops, &st)
		}
	})
}
