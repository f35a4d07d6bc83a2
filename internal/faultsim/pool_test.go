package faultsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// poolCircuit builds a few levels with reconvergent fanout so that stem,
// branch and bridge faults behave differently.
func poolCircuit() *netlist.Circuit {
	c := netlist.New("pool", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	ci := c.AddPI("ci")
	d := c.AddPI("d")
	n1 := c.AddGate("n1", lib.ByName("NAND2X1"), a, b)
	n2 := c.AddGate("n2", lib.ByName("NOR2X1"), ci, d)
	x1 := c.AddGate("x1", lib.ByName("XOR2X1"), n1, n2)
	i1 := c.AddGate("i1", lib.ByName("INVX1"), n1)
	o1 := c.AddGate("o1", lib.ByName("OAI21X1"), x1, i1, d)
	c.MarkPO(o1)
	c.MarkPO(x1)
	return c
}

// poolFaults builds a deterministic mixed fault list over the circuit.
func poolFaults(c *netlist.Circuit) *fault.List {
	l := &fault.List{}
	for _, n := range c.Nets {
		for _, v := range []uint8{0, 1} {
			l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
			if len(n.Fanout) > 1 {
				p := n.Fanout[0]
				l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v,
					BranchGate: p.Gate, BranchPin: p.Pin})
			}
		}
		l.Add(&fault.Fault{Model: fault.Transition, Net: n, Value: 0})
	}
	l.Add(&fault.Fault{Model: fault.Bridge, Net: c.NetByName("n1_o"), Other: c.NetByName("n2_o")})
	l.Add(&fault.Fault{Model: fault.Bridge, Net: c.NetByName("n2_o"), Other: c.NetByName("n1_o")})
	return l
}

func randomTests(n, npi int, seed int64) []Test {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Test, n)
	for i := range out {
		t := Test{Vec: make([]uint8, npi)}
		for j := range t.Vec {
			t.Vec[j] = uint8(rng.Intn(2))
		}
		if i%3 == 0 {
			t.Init = make([]uint8, npi)
			for j := range t.Init {
				t.Init[j] = uint8(rng.Intn(2))
			}
		}
		out[i] = t
	}
	return out
}

// TestPoolDetectsManyMatchesEngine: the sharded detection words equal one
// engine's per-fault Detects and the whole-circuit reference, block after
// block, at 1 and 2 workers.
func TestPoolDetectsManyMatchesEngine(t *testing.T) {
	c := poolCircuit()
	tests := randomTests(200, len(c.PIs), 7)
	faults := poolFaults(c).Faults
	eng := New(c)
	for _, workers := range []int{1, 2} {
		p := NewPool(c, workers)
		det := make([]logic.Word, len(faults))
		for start := 0; start < len(tests); start += 64 {
			b := p.SimBlock(tests[start:min(start+64, len(tests))])
			p.DetectsMany(faults, b, det)
			for i, f := range faults {
				if want := eng.Detects(f, b); det[i] != want {
					t.Fatalf("workers=%d block %d: fault %d word %x, engine %x", workers, start/64, i, det[i], want)
				}
				if want := refDetects(eng, f, b); det[i] != want {
					t.Fatalf("workers=%d block %d: fault %d word %x, reference %x", workers, start/64, i, det[i], want)
				}
			}
		}
	}
}

// TestPoolDetectedByMatchesEngine: Pool.DetectedBy's per-test credit equals
// the credit loop over the whole-circuit reference, at 1 and 2 workers, with
// pre-marked faults exercising the skip condition.
func TestPoolDetectedByMatchesEngine(t *testing.T) {
	c := poolCircuit()
	tests := randomTests(150, len(c.PIs), 11)

	ref := poolFaults(c)
	// Pre-mark a few faults to exercise the skip conditions.
	ref.Faults[0].Status = fault.Undetectable
	ref.Faults[1].Status = fault.Detected
	refPer := refDetectedBy(New(c), ref, tests)

	for _, workers := range []int{1, 2} {
		l := poolFaults(c)
		l.Faults[0].Status = fault.Undetectable
		l.Faults[1].Status = fault.Detected
		per := NewPool(c, workers).DetectedBy(l, tests)
		if !slices.Equal(per, refPer) {
			t.Fatalf("workers=%d: per-test credit %v, want %v", workers, per, refPer)
		}
	}
}

// sharedSiteFaults lists randFaults' faults plus faults that pile up on few
// sites, in a shuffled order so that one site's faults are interleaved with
// other sites': several cell-aware behaviours on one host gate, bridges
// sharing one victim, and a feedback bridge whose aggressor lies in the
// victim's fanout cone. randFaults already puts every stem, branch and
// transition fault of a net, and the host's own cell-aware faults, on the
// net's site.
func sharedSiteFaults(rng *rand.Rand, c *netlist.Circuit) []*fault.Fault {
	fs := randFaults(rng, c)
	host := c.Gates[rng.Intn(len(c.Gates))]
	for k := 0; k < 8; k++ {
		fs = append(fs, &fault.Fault{Model: fault.CellAware, Internal: true, Gate: host,
			Behavior: randBehavior(rng, host, k%3 != 1, k%3 != 0)})
	}
	victim := c.Nets[rng.Intn(len(c.Nets))]
	for k := 0; k < 4; k++ {
		fs = append(fs, &fault.Fault{Model: fault.Bridge, Net: victim, Other: c.Nets[rng.Intn(len(c.Nets))]})
	}
	for _, n := range c.Nets {
		if len(n.Fanout) > 0 {
			fs = append(fs, &fault.Fault{Model: fault.Bridge, Net: n, Other: n.Fanout[0].Gate.Out})
			break
		}
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// checkPoolAgainstReference runs Pool.DetectsMany over a random netlist's
// shared-site faults at 1 and 2 workers, for a 1-test block (the
// collateral-drop path), a partial block and a full one, and compares every
// detection word with refDetects. Each block is simulated twice: over every
// fault, then over a random subset in another order, so a site's state from
// one call must not reach the next. A third pool's per-site stamp wraps
// around at the first call of every block: first over stamps never set, then
// over stamps an earlier block left at the reused epochs.
func checkPoolAgainstReference(t *testing.T, rng *rand.Rand, npi, gates int) {
	t.Helper()
	c := randNetlist(rng, npi, gates)
	faults := sharedSiteFaults(rng, c)
	eng := New(c)
	det := make([]logic.Word, len(faults))
	for _, run := range []struct {
		workers int
		wrap    bool
	}{{1, false}, {2, false}, {2, true}} {
		p := NewPool(c, run.workers)
		for _, n := range []int{1, 1 + rng.Intn(63), 64} {
			if run.wrap {
				p.sites.epoch = math.MaxUint32
			}
			b := p.SimBlock(randTests(rng, n, npi))
			subset := append([]*fault.Fault(nil), faults...)
			rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
			subset = subset[:rng.Intn(len(subset)+1)]
			for _, fs := range [][]*fault.Fault{faults, subset} {
				p.DetectsMany(fs, b, det[:len(fs)])
				for i, f := range fs {
					if want := refDetects(eng, f, b); det[i] != want {
						t.Fatalf("workers=%d wrap=%v N=%d fault %v: DetectsMany = %016x, reference = %016x", run.workers, run.wrap, n, f, det[i], want)
					}
				}
			}
		}
	}
}

// TestDetectsManySharedSites compares the pool with the whole-circuit
// reference on random netlists whose faults share sites.
func TestDetectsManySharedSites(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		checkPoolAgainstReference(t, rng, 2+rng.Intn(6), 1+rng.Intn(40))
	}
}

// FuzzDetectsMany differentially checks the pool against the whole-circuit
// reference on fuzzer-chosen random netlists with shared-site faults.
func FuzzDetectsMany(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12))
	f.Add(int64(9), uint8(6), uint8(35))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, npi, gates uint8) {
		checkPoolAgainstReference(t, rand.New(rand.NewSource(seed)), 1+int(npi%8), 1+int(gates%48))
	})
}
