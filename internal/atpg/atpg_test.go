package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

var lib = library.OSU018Like()

func gen(t *testing.T, c *netlist.Circuit, f *fault.Fault, limit int) (SearchOutcome, *TestVec) {
	t.Helper()
	order := c.Levelize()
	levels := c.Levels()
	rng := rand.New(rand.NewSource(9))
	return NewGenerator(c, order, levels, limit).Generate(f, rng)
}

// buildMux: y = NAND(NAND(a, ~s), NAND(b, s)) — a 2:1 mux.
func buildMux(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("mux", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	s := c.AddPI("s")
	sn := c.AddGate("u0", lib.ByName("INVX1"), s)
	t1 := c.AddGate("u1", lib.ByName("NAND2X1"), a, sn)
	t2 := c.AddGate("u2", lib.ByName("NAND2X1"), b, s)
	y := c.AddGate("u3", lib.ByName("NAND2X1"), t1, t2)
	c.MarkPO(y)
	return c
}

// buildConsensus: y = ab + (~a)c + bc with the bc term redundant.
func buildConsensus(t *testing.T) (*netlist.Circuit, *netlist.Net) {
	t.Helper()
	c := netlist.New("consensus", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	cc := c.AddPI("c")
	an := c.AddGate("u_an", lib.ByName("INVX1"), a)
	ab := c.AddGate("u_ab", lib.ByName("AND2X2"), a, b)
	ac := c.AddGate("u_ac", lib.ByName("AND2X2"), an, cc)
	bc := c.AddGate("u_bc", lib.ByName("AND2X2"), b, cc)
	nor := c.AddGate("u_nor", lib.ByName("NOR3X1"), ab, ac, bc)
	y := c.AddGate("u_y", lib.ByName("INVX1"), nor)
	c.MarkPO(y)
	return c, bc
}

func verifyDetects(t *testing.T, c *netlist.Circuit, f *fault.Fault, tv *TestVec) {
	t.Helper()
	eng := faultsim.New(c)
	b := eng.SimBlock([]faultsim.Test{{Init: tv.Init, Vec: tv.Vec}})
	if eng.Detects(f, b) == 0 {
		t.Errorf("generated test does not detect %v", f)
	}
}

func TestStuckAtDetectableMux(t *testing.T) {
	c := buildMux(t)
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			f := &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}
			out, tv := gen(t, c, f, 10000)
			if out != FoundTest {
				t.Errorf("sa%d@%s: outcome %d, want test (mux is irredundant)", v, n.Name, out)
				continue
			}
			verifyDetects(t, c, f, tv)
		}
	}
}

func TestConsensusRedundancy(t *testing.T) {
	c, bc := buildConsensus(t)
	// SA0 on the consensus term's output is the textbook redundant fault.
	f0 := &fault.Fault{Model: fault.StuckAt, Net: bc, Value: 0}
	out, _ := gen(t, c, f0, 10000)
	if out != ProvenImpossible {
		t.Errorf("bc/sa0 outcome %d, want proven undetectable", out)
	}
	// SA1 on the same net is detectable.
	f1 := &fault.Fault{Model: fault.StuckAt, Net: bc, Value: 1}
	out, tv := gen(t, c, f1, 10000)
	if out != FoundTest {
		t.Fatalf("bc/sa1 outcome %d, want test", out)
	}
	verifyDetects(t, c, f1, tv)
}

func TestBranchFaultGeneration(t *testing.T) {
	c := buildMux(t)
	// Branch sa1 on pin 1 of u3 (the t2 input).
	u3 := c.NetByName("u3_o").Driver
	f := &fault.Fault{Model: fault.StuckAt, Net: u3.Fanin[1], Value: 1,
		BranchGate: u3, BranchPin: 1}
	out, tv := gen(t, c, f, 10000)
	if out != FoundTest {
		t.Fatalf("branch fault outcome %d, want test", out)
	}
	verifyDetects(t, c, f, tv)
}

func TestTransitionGeneration(t *testing.T) {
	c := buildMux(t)
	a := c.NetByName("a")
	// Slow-to-rise on a.
	f := &fault.Fault{Model: fault.Transition, Net: a, Value: 0}
	out, tv := gen(t, c, f, 10000)
	if out != FoundTest {
		t.Fatalf("transition outcome %d, want test", out)
	}
	if tv.Init == nil {
		t.Fatal("transition test must be two-pattern")
	}
	verifyDetects(t, c, f, tv)
}

func TestTransitionOnConstantNetUndetectable(t *testing.T) {
	// k = NAND(a, ~a) is constant 1.
	c := netlist.New("const", lib)
	a := c.AddPI("a")
	an := c.AddGate("u_inv", lib.ByName("INVX1"), a)
	k := c.AddGate("u_k", lib.ByName("NAND2X1"), a, an)
	// Give the constant net observable downstream logic.
	b := c.AddPI("b")
	y := c.AddGate("u_y", lib.ByName("AND2X2"), k, b)
	c.MarkPO(y)

	// Slow-to-fall (Value=1): needs the site to go 1 -> 0; SA1 at a
	// constant-1 net is unexcitable.
	f := &fault.Fault{Model: fault.Transition, Net: k, Value: 1}
	out, _ := gen(t, c, f, 10000)
	if out != ProvenImpossible {
		t.Errorf("slow-to-fall on constant-1 net: outcome %d, want undetectable", out)
	}
	// Slow-to-rise (Value=0): initialization at 0 is impossible.
	f0 := &fault.Fault{Model: fault.Transition, Net: k, Value: 0}
	out, _ = gen(t, c, f0, 10000)
	if out != ProvenImpossible {
		t.Errorf("slow-to-rise on constant-1 net: outcome %d, want undetectable", out)
	}
}

func TestBridgeGeneration(t *testing.T) {
	c := buildMux(t)
	a := c.NetByName("a")
	b := c.NetByName("b")
	f := &fault.Fault{Model: fault.Bridge, Net: a, Other: b}
	out, tv := gen(t, c, f, 10000)
	if out != FoundTest {
		t.Fatalf("bridge outcome %d, want test", out)
	}
	verifyDetects(t, c, f, tv)
}

func TestBridgeBetweenEqualNetsUndetectable(t *testing.T) {
	// b1 = BUF(a), b2 = INV(INV(a)): always equal.
	c := netlist.New("eq", lib)
	a := c.AddPI("a")
	b1 := c.AddGate("u_b", lib.ByName("BUFX2"), a)
	i1 := c.AddGate("u_i1", lib.ByName("INVX1"), a)
	b2 := c.AddGate("u_i2", lib.ByName("INVX1"), i1)
	y := c.AddGate("u_y", lib.ByName("XOR2X1"), b1, b2)
	c.MarkPO(y)
	f := &fault.Fault{Model: fault.Bridge, Net: b1, Other: b2}
	out, _ := gen(t, c, f, 10000)
	if out != ProvenImpossible {
		t.Errorf("bridge between always-equal nets: outcome %d, want undetectable", out)
	}
}

func TestCellAwareGeneration(t *testing.T) {
	c := buildMux(t)
	u1 := c.NetByName("u1_o").Driver
	// Static fault: output flips when inputs are (1,1).
	beh := &switchsim.Behavior{Inputs: 2, StaticMask: 1 << 0b11}
	f := &fault.Fault{Model: fault.CellAware, Gate: u1, Behavior: beh, Internal: true}
	out, tv := gen(t, c, f, 10000)
	if out != FoundTest {
		t.Fatalf("cell-aware outcome %d, want test", out)
	}
	verifyDetects(t, c, f, tv)
}

func TestCellAwareUnjustifiableAssignment(t *testing.T) {
	// Gate with both inputs tied to the same net: assignment (0,1) is
	// unreachable.
	c := netlist.New("tied", lib)
	a := c.AddPI("a")
	g := c.AddGate("u_g", lib.ByName("NAND2X1"), a, a)
	y := c.AddGate("u_y", lib.ByName("INVX1"), g)
	c.MarkPO(y)
	beh := &switchsim.Behavior{Inputs: 2, StaticMask: 1 << 0b01}
	f := &fault.Fault{Model: fault.CellAware, Gate: g.Driver, Behavior: beh, Internal: true}
	out, _ := gen(t, c, f, 10000)
	if out != ProvenImpossible {
		t.Errorf("unjustifiable cell-aware assignment: outcome %d, want undetectable", out)
	}
}

func TestCellAwareDynamicGeneration(t *testing.T) {
	c := buildMux(t)
	u1 := c.NetByName("u1_o").Driver
	pm := make([]uint64, 4)
	pm[0b00] = 1 << 0b11 // pair (00 -> 11) flips output
	beh := &switchsim.Behavior{Inputs: 2, PairMask: pm}
	f := &fault.Fault{Model: fault.CellAware, Gate: u1, Behavior: beh, Internal: true}
	out, tv := gen(t, c, f, 10000)
	if out != FoundTest {
		t.Fatalf("dynamic cell-aware outcome %d, want test", out)
	}
	if tv.Init == nil {
		t.Fatal("dynamic cell-aware test must be two-pattern")
	}
	verifyDetects(t, c, f, tv)
}

// TestPodemMatchesBruteForce is the gold consistency test: on random small
// circuits, PODEM's detectable/undetectable verdict for every stem stuck-at
// fault must match exhaustive enumeration of all input vectors.
func TestPodemMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cellNames := []string{"NAND2X1", "NOR2X1", "XOR2X1", "INVX1", "AND2X2", "OAI21X1", "MUX2X1"}
	for trial := 0; trial < 20; trial++ {
		c := netlist.New("rand", lib)
		var nets []*netlist.Net
		for i := 0; i < 4; i++ {
			nets = append(nets, c.AddPI(string(rune('a'+i))))
		}
		for i := 0; i < 8; i++ {
			cell := lib.ByName(cellNames[rng.Intn(len(cellNames))])
			fanin := make([]*netlist.Net, cell.NumInputs())
			for j := range fanin {
				fanin[j] = nets[rng.Intn(len(nets))]
			}
			nets = append(nets, c.AddGate("", cell, fanin...))
		}
		c.MarkPO(nets[len(nets)-1])
		c.MarkPO(nets[len(nets)-2])

		eng := faultsim.New(c)
		// Exhaustive test block: all 16 vectors.
		var all []faultsim.Test
		for p := uint(0); p < 16; p++ {
			all = append(all, faultsim.Test{
				Vec: []uint8{uint8(p & 1), uint8(p >> 1 & 1), uint8(p >> 2 & 1), uint8(p >> 3 & 1)}})
		}
		blk := eng.SimBlock(all)

		for _, n := range c.Nets {
			for v := uint8(0); v <= 1; v++ {
				f := &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}
				brute := eng.Detects(f, blk) != 0
				out, tv := gen(t, c, f, 100000)
				switch out {
				case FoundTest:
					if !brute {
						t.Fatalf("trial %d: PODEM found test for undetectable sa%d@%s", trial, v, n.Name)
					}
					verifyDetects(t, c, f, tv)
				case ProvenImpossible:
					if brute {
						t.Fatalf("trial %d: PODEM claims undetectable but sa%d@%s is detectable", trial, v, n.Name)
					}
				case LimitExceeded:
					t.Fatalf("trial %d: limit exceeded on a 4-PI circuit", trial)
				}
			}
		}
	}
}

// TestRunEndToEnd checks the full driver: status partitioning, and that the
// final compacted test set still detects every Detected fault.
func TestRunEndToEnd(t *testing.T) {
	c, bc := buildConsensus(t)
	l := &fault.List{}
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
		}
	}
	res := Run(c, l, DefaultConfig())
	if res.Detected+res.Undetectable+res.Aborted != l.Len() {
		t.Fatalf("status partition broken: %d+%d+%d != %d",
			res.Detected, res.Undetectable, res.Aborted, l.Len())
	}
	if res.Aborted != 0 {
		t.Errorf("aborts on a tiny circuit: %d", res.Aborted)
	}
	if res.Undetectable == 0 {
		t.Error("consensus circuit must have undetectable faults")
	}
	// bc/sa0 must be among them.
	for _, f := range l.Faults {
		if f.Net == bc && f.Value == 0 && f.Model == fault.StuckAt {
			if f.Status != fault.Undetectable {
				t.Errorf("bc/sa0 status = %v, want undetectable", f.Status)
			}
		}
	}
	// Re-simulate the final test set from scratch: every Detected fault
	// must be detected, every Undetectable fault must not be.
	fresh := faultsim.New(c)
	for _, f := range l.Faults {
		det := false
		for start := 0; start < len(res.Tests); start += 64 {
			end := start + 64
			if end > len(res.Tests) {
				end = len(res.Tests)
			}
			b := fresh.SimBlock(res.Tests[start:end])
			if fresh.Detects(f, b) != 0 {
				det = true
				break
			}
		}
		switch f.Status {
		case fault.Detected:
			if !det {
				t.Errorf("fault %v marked detected but T misses it after compaction", f)
			}
		case fault.Undetectable:
			if det {
				t.Errorf("fault %v marked undetectable but T detects it", f)
			}
		}
	}
}

func TestRunDeterministicAcrossSeedsForVerdicts(t *testing.T) {
	// Detected/undetectable verdicts must not depend on the seed (test
	// vectors may differ).
	c, _ := buildConsensus(t)
	statuses := func(seed int64) []fault.Status {
		l := &fault.List{}
		for _, n := range c.Nets {
			for v := uint8(0); v <= 1; v++ {
				l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
			}
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		Run(c, l, cfg)
		out := make([]fault.Status, l.Len())
		for i, f := range l.Faults {
			out[i] = f.Status
		}
		return out
	}
	s1 := statuses(1)
	s2 := statuses(99)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault %d verdict differs across seeds: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// TestWitnessSetDedupes: replayed witnesses are deduplicated by content in
// first-occurrence order, a nil Init and an npi-long Init stay distinct, and
// a witness whose hash key is already taken by a different one probes past
// it instead of being merged.
func TestWitnessSetDedupes(t *testing.T) {
	s := witnessSet{seen: make(map[uint64]int)}
	a := faultsim.Test{Vec: []uint8{0, 1, 1}}
	aInit := faultsim.Test{Init: []uint8{0, 1, 1}, Vec: []uint8{0, 1, 1}}
	b := faultsim.Test{Init: []uint8{1, 0, 0}, Vec: []uint8{1, 1, 0}}
	for _, w := range []faultsim.Test{a, aInit, a, b,
		{Vec: []uint8{0, 1, 1}},                           // a, in another slice
		{Init: []uint8{0, 1, 1}, Vec: []uint8{0, 1, 1}},   // aInit
		{Init: []uint8{1, 0, 0}, Vec: []uint8{1, 1, 0}}} { // b
		s.add(w)
	}
	want := []faultsim.Test{a, aInit, b}
	if len(s.tests) != len(want) {
		t.Fatalf("%d witnesses kept, want %d", len(s.tests), len(want))
	}
	for i, w := range want {
		if !slices.Equal(s.tests[i].Vec, w.Vec) || !slices.Equal(s.tests[i].Init, w.Init) ||
			(s.tests[i].Init == nil) != (w.Init == nil) {
			t.Errorf("witness %d = %v, want %v", i, s.tests[i], w)
		}
	}

	// Plant a's index at c's hash key: c must probe past it and be kept.
	c := faultsim.Test{Vec: []uint8{1, 0, 1}}
	s.h.Reset()
	s.h.Write(c.Vec)
	s.seen[s.h.Sum64()] = 0
	s.add(c)
	s.add(c)
	if len(s.tests) != 4 || !slices.Equal(s.tests[3].Vec, c.Vec) {
		t.Fatalf("colliding witness not kept once: %v", s.tests)
	}
}

// TestFaultRandMatchesEagerStream: the lazily seeded per-fault stream is the
// stream of an eagerly seeded source, through every Rand method the ATPG
// tiers read.
func TestFaultRandMatchesEagerStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, id := range []int{0, 3, 12345} {
			lazy := faultRand(seed, id)
			eager := rand.New(rand.NewSource(faultSeed(seed, id)))
			for k := 0; k < 200; k++ {
				var a, b int64
				switch k % 3 {
				case 0:
					a, b = int64(lazy.Intn(2)), int64(eager.Intn(2))
				case 1:
					a, b = lazy.Int63(), eager.Int63()
				default:
					a, b = int64(lazy.Uint64()), int64(eager.Uint64())
				}
				if a != b {
					t.Fatalf("seed %d fault %d draw %d: lazy %d, eager %d", seed, id, k, a, b)
				}
			}
		}
	}
}
