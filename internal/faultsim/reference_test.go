package faultsim

import (
	"math"
	"math/rand"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

// refDetects is a whole-circuit fault simulator: copy every good word,
// force the site, then visit every gate in topological order and
// re-evaluate the ones with a changed fanin. It is the oracle of the
// differential tests below.
func refDetects(e *Engine, f *fault.Fault, b *Block) logic.Word {
	fvals := append([]logic.Word(nil), b.Vals...)
	dirty := make([]bool, len(fvals))

	var forcedGate *netlist.Gate
	var forcedPin int
	var forcedWord logic.Word
	useForced := false

	broadcast := func(v uint8) logic.Word {
		if v&1 == 1 {
			return logic.AllOnes
		}
		return 0
	}
	goodInitOf := func(n *netlist.Net, v uint8) logic.Word {
		if v&1 == 1 {
			return b.InitVals[n.ID]
		}
		return ^b.InitVals[n.ID]
	}

	switch f.Model {
	case fault.StuckAt:
		if f.BranchGate == nil {
			fvals[f.Net.ID] = broadcast(f.Value)
			dirty[f.Net.ID] = true
		} else {
			forcedGate, forcedPin = f.BranchGate, f.BranchPin
			forcedWord = broadcast(f.Value)
			useForced = true
		}
	case fault.Transition:
		cond := b.HasInit & goodInitOf(f.Net, f.Value)
		if f.BranchGate == nil {
			fvals[f.Net.ID] = (b.Vals[f.Net.ID] &^ cond) | (broadcast(f.Value) & cond)
			if fvals[f.Net.ID] == b.Vals[f.Net.ID] {
				return 0
			}
			dirty[f.Net.ID] = true
		} else {
			forcedGate, forcedPin = f.BranchGate, f.BranchPin
			forcedWord = (b.Vals[f.Net.ID] &^ cond) | (broadcast(f.Value) & cond)
			useForced = true
		}
	case fault.Bridge:
		if fvals[f.Net.ID] == b.Vals[f.Other.ID] {
			return 0
		}
		fvals[f.Net.ID] = b.Vals[f.Other.ID]
		dirty[f.Net.ID] = true
	case fault.CellAware:
		act := e.cellAwareActivation(f, b)
		if act == 0 {
			return 0
		}
		out := f.Gate.Out
		fvals[out.ID] = b.Vals[out.ID] ^ act
		dirty[out.ID] = true
	}

	var buf [8]logic.Word
	for _, g := range e.c.Levelize() {
		anyDirty := false
		for _, in := range g.Fanin {
			if dirty[in.ID] {
				anyDirty = true
				break
			}
		}
		if !anyDirty && !(useForced && g == forcedGate) {
			continue
		}
		in := buf[:len(g.Fanin)]
		for i, fn := range g.Fanin {
			in[i] = fvals[fn.ID]
		}
		if useForced && g == forcedGate {
			in[forcedPin] = forcedWord
		}
		nv := g.Type.TT.EvalWord(in)
		if nv != fvals[g.Out.ID] {
			fvals[g.Out.ID] = nv
			dirty[g.Out.ID] = true
		}
	}

	var det logic.Word
	for _, po := range e.c.POs {
		det |= fvals[po.ID] ^ b.Vals[po.ID]
	}
	return det & b.Valid
}

// refDetectedBy is the credit loop of Pool.DetectedBy over refDetects.
func refDetectedBy(e *Engine, l *fault.List, tests []Test) []int {
	per := make([]int, len(tests))
	dropped := make(map[*fault.Fault]bool)
	for start := 0; start < len(tests); start += 64 {
		b := e.SimBlock(tests[start:min(start+64, len(tests))])
		for _, f := range l.Faults {
			if f.Status == fault.Undetectable || dropped[f] {
				continue
			}
			det := refDetects(e, f, b)
			if det == 0 {
				continue
			}
			for p := 0; p < b.N; p++ {
				if det>>uint(p)&1 == 1 {
					per[start+p]++
					break
				}
			}
			dropped[f] = true
		}
	}
	return per
}

// randNetlist builds a random acyclic netlist of npi inputs and the given
// number of gates. Fanins are drawn with replacement, so a gate may see the
// same net on two pins; several nets, some with fanout, are marked PO.
func randNetlist(rng *rand.Rand, npi, gates int) *netlist.Circuit {
	names := []string{"NAND2X1", "NOR2X1", "XOR2X1", "INVX1", "AND2X2",
		"OAI21X1", "MUX2X1", "AOI22X1", "BUFX2", "NAND3X1"}
	c := netlist.New("rand", lib)
	var nets []*netlist.Net
	for i := 0; i < npi; i++ {
		nets = append(nets, c.AddPI(""))
	}
	for i := 0; i < gates; i++ {
		cell := lib.ByName(names[rng.Intn(len(names))])
		fanin := make([]*netlist.Net, cell.NumInputs())
		for j := range fanin {
			// Favour recent nets so that cones are deep and reconverge.
			k := len(nets) - 1 - rng.Intn(min(len(nets), 6))
			if rng.Intn(3) == 0 {
				k = rng.Intn(len(nets))
			}
			fanin[j] = nets[k]
		}
		nets = append(nets, c.AddGate("", cell, fanin...))
	}
	c.MarkPO(nets[len(nets)-1])
	for _, n := range nets {
		if rng.Intn(5) == 0 {
			c.MarkPO(n)
		}
	}
	return c
}

// randBehavior fabricates a cell-aware behaviour for gate g: static only
// (dynamic false), or dynamic only (static false).
func randBehavior(rng *rand.Rand, g *netlist.Gate, dynamic bool) *switchsim.Behavior {
	k := len(g.Fanin)
	beh := &switchsim.Behavior{Inputs: k}
	if !dynamic {
		beh.StaticMask = rng.Uint64() & (1<<(1<<uint(k)) - 1)
		return beh
	}
	beh.PairMask = make([]uint64, 1<<uint(k))
	for a := range beh.PairMask {
		beh.PairMask[a] = rng.Uint64() & (1<<(1<<uint(k)) - 1) &^ (1 << uint(a))
	}
	return beh
}

// inFanoutCone reports whether to lies in from's transitive fanout.
func inFanoutCone(from, to *netlist.Net) bool {
	seen := map[*netlist.Net]bool{from: true}
	stack := []*netlist.Net{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, p := range n.Fanout {
			if !seen[p.Gate.Out] {
				seen[p.Gate.Out] = true
				stack = append(stack, p.Gate.Out)
			}
		}
	}
	return false
}

// randFaults lists faults of every model over c: stem and branch stuck-at
// and transition faults on every net and fanout pin, bridges (with feedback
// bridges whose aggressor lies in the victim's fanout cone), and static and
// dynamic cell-aware faults.
func randFaults(rng *rand.Rand, c *netlist.Circuit) []*fault.Fault {
	var fs []*fault.Fault
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			fs = append(fs,
				&fault.Fault{Model: fault.StuckAt, Net: n, Value: v},
				&fault.Fault{Model: fault.Transition, Net: n, Value: v})
			for _, p := range n.Fanout {
				fs = append(fs,
					&fault.Fault{Model: fault.StuckAt, Net: n, Value: v, BranchGate: p.Gate, BranchPin: p.Pin},
					&fault.Fault{Model: fault.Transition, Net: n, Value: v, BranchGate: p.Gate, BranchPin: p.Pin})
			}
		}
	}
	for i := 0; i < 2*len(c.Nets); i++ {
		a, b := c.Nets[rng.Intn(len(c.Nets))], c.Nets[rng.Intn(len(c.Nets))]
		fs = append(fs, &fault.Fault{Model: fault.Bridge, Net: a, Other: b})
	}
	for _, g := range c.Gates {
		for _, dyn := range []bool{false, true} {
			fs = append(fs, &fault.Fault{Model: fault.CellAware, Internal: true, Gate: g,
				Behavior: randBehavior(rng, g, dyn)})
		}
	}
	return fs
}

// randTests draws n tests over npi inputs; roughly half are two-pattern, so
// transition and dynamic cell-aware faults see blocks with and without a
// launch.
func randTests(rng *rand.Rand, n, npi int) []Test {
	out := make([]Test, n)
	for i := range out {
		out[i].Vec = make([]uint8, npi)
		for j := range out[i].Vec {
			out[i].Vec[j] = uint8(rng.Intn(2))
		}
		if rng.Intn(2) == 0 {
			out[i].Init = make([]uint8, npi)
			for j := range out[i].Init {
				out[i].Init[j] = uint8(rng.Intn(2))
			}
		}
	}
	return out
}

// checkAgainstReference simulates every fault of a random netlist against
// a few random blocks on one reused engine and compares each detection word
// with refDetects. The engine starts a few calls short of the epoch
// wrap-around, so the overlay's reset runs too.
func checkAgainstReference(t *testing.T, rng *rand.Rand, npi, gates int) {
	t.Helper()
	c := randNetlist(rng, npi, gates)
	faults := randFaults(rng, c)
	e := New(c)
	e.epoch = math.MaxUint32 - 3
	for blk := 0; blk < 3; blk++ {
		b := e.SimBlock(randTests(rng, 1+rng.Intn(64), npi))
		for _, f := range faults {
			if got, want := e.Detects(f, b), refDetects(e, f, b); got != want {
				t.Fatalf("block %d fault %v: Detects = %016x, reference = %016x", blk, f, got, want)
			}
		}
	}
}

// TestDetectsMatchesReference compares the event-driven simulator with the
// whole-circuit reference on random netlists for every fault model, then on
// the hand-built edge cases.
func TestDetectsMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 40; trial++ {
			checkAgainstReference(t, rng, 2+rng.Intn(6), 1+rng.Intn(40))
		}
	})
	t.Run("edge cases", detectsEdgeCases)
}

// detectsEdgeCases pins the cases an event-driven simulator can get wrong,
// each against the reference and a hand-derived word.
func detectsEdgeCases(t *testing.T) {
	check := func(e *Engine, f *fault.Fault, b *Block, want logic.Word, what string) {
		t.Helper()
		got, ref := e.Detects(f, b), refDetects(e, f, b)
		if got != ref || got != want {
			t.Errorf("%s: Detects = %b, reference = %b, want %b", what, got, ref, want)
		}
	}
	all4 := []Test{{Vec: vec(0, 0)}, {Vec: vec(1, 0)}, {Vec: vec(0, 1)}, {Vec: vec(1, 1)}}

	// Feedback bridge: y = NAND2(a, b) with victim a and aggressor y,
	// which lies in a's fanout cone. The victim takes y's good value and
	// is never re-evaluated, so the faulty y is NAND2(good y, b). Under
	// (a, b) = (0,1) good y = 1, faulty a = 1, faulty y = 0: detected;
	// (1,1): good y = 0, faulty a = 0, faulty y = 1: detected.
	{
		c := netlist.New("fb", lib)
		a, b := c.AddPI("a"), c.AddPI("b")
		y := c.AddGate("u", lib.ByName("NAND2X1"), a, b)
		c.MarkPO(y)
		e := New(c)
		f := &fault.Fault{Model: fault.Bridge, Net: a, Other: y}
		if !inFanoutCone(a, y) {
			t.Fatal("aggressor must lie in the victim's fanout cone")
		}
		check(e, f, e.SimBlock(all4), 0b1100, "feedback bridge")
	}

	// Stem fault on a PO net that also fans out: x = INV(a) is a PO and
	// feeds y = NAND2(x, b). x stuck-at-0 is observed on x itself under
	// a = 0, whatever y does.
	{
		c := netlist.New("po", lib)
		a, b := c.AddPI("a"), c.AddPI("b")
		x := c.AddGate("ux", lib.ByName("INVX1"), a)
		y := c.AddGate("uy", lib.ByName("NAND2X1"), x, b)
		c.MarkPO(x)
		c.MarkPO(y)
		e := New(c)
		check(e, &fault.Fault{Model: fault.StuckAt, Net: x, Value: 0}, e.SimBlock(all4),
			0b0101, "stem fault on a fanning-out PO")
		// The same net's branch into uy is not observed on x.
		check(e, &fault.Fault{Model: fault.StuckAt, Net: x, Value: 0, BranchGate: y.Driver, BranchPin: 0},
			e.SimBlock(all4), 0b0100, "branch fault below a PO stem")
	}

	// A gate fed twice by the same net: y = XOR2(a, a) is constant 0.
	// A branch fault on one pin makes the pins disagree whenever the
	// other pin's good value differs from the forced one.
	{
		c := netlist.New("twice", lib)
		a := c.AddPI("a")
		y := c.AddGate("u", lib.ByName("XOR2X1"), a, a)
		c.MarkPO(y)
		e := New(c)
		b := e.SimBlock([]Test{{Vec: vec(0)}, {Vec: vec(1)}})
		check(e, &fault.Fault{Model: fault.StuckAt, Net: a, Value: 1, BranchGate: y.Driver, BranchPin: 1},
			b, 0b01, "branch sa1 on a doubly-fed pin")
		check(e, &fault.Fault{Model: fault.StuckAt, Net: a, Value: 0, BranchGate: y.Driver, BranchPin: 0},
			b, 0b10, "branch sa0 on a doubly-fed pin")
		check(e, &fault.Fault{Model: fault.StuckAt, Net: a, Value: 1}, b, 0, "stem fault on a doubly-fed net")
	}

	// An effect masked at the first gate: y = AND2(a, b) with b = 0
	// blocks every change on a, so nothing past the first gate moves.
	{
		c := netlist.New("mask", lib)
		a, b := c.AddPI("a"), c.AddPI("b")
		y := c.AddGate("u", lib.ByName("AND2X2"), a, b)
		z := c.AddGate("v", lib.ByName("INVX1"), y)
		c.MarkPO(z)
		e := New(c)
		blk := e.SimBlock([]Test{{Vec: vec(0, 0)}, {Vec: vec(1, 0)}})
		check(e, &fault.Fault{Model: fault.StuckAt, Net: a, Value: 1}, blk, 0, "sa1 masked at the first gate")
		check(e, &fault.Fault{Model: fault.StuckAt, Net: a, Value: 0}, blk, 0, "sa0 masked at the first gate")
	}
}

// FuzzDetects differentially checks the event-driven simulator against the
// whole-circuit reference on fuzzer-chosen random netlists.
func FuzzDetects(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12))
	f.Add(int64(7), uint8(5), uint8(30))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, npi, gates uint8) {
		checkAgainstReference(t, rand.New(rand.NewSource(seed)), 1+int(npi%8), 1+int(gates%48))
	})
}
