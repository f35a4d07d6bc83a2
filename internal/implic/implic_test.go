package implic_test

import (
	"math/rand"
	"sync"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
)

var lib = library.OSU018Like()

// buildConstOne: g = NAND(a, ~a), constant 1, observed at the output.
func buildConstOne(t *testing.T) (*netlist.Circuit, *netlist.Net) {
	t.Helper()
	c := netlist.New("constone", lib)
	a := c.AddPI("a")
	an := c.AddGate("u0", lib.ByName("INVX1"), a)
	g := c.AddGate("u1", lib.ByName("NAND2X1"), a, an)
	c.MarkPO(g)
	return c, g
}

// buildAbsorb: x = AND(a, b), y = OR(x, a). By absorption y = a, so x
// stuck-at-0 is undetectable: exciting it needs x=1 which forces a=1,
// and a=1 kills sensitization through the OR gate.
func buildAbsorb(t *testing.T) (*netlist.Circuit, *netlist.Net) {
	t.Helper()
	c := netlist.New("absorb", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddGate("u0", lib.ByName("AND2X2"), a, b)
	y := c.AddGate("u1", lib.ByName("OR2X2"), x, a)
	c.MarkPO(y)
	return c, x
}

func podemOutcome(t *testing.T, c *netlist.Circuit, f *fault.Fault) atpg.SearchOutcome {
	t.Helper()
	order := c.Levelize()
	levels := c.Levels()
	out, _ := atpg.NewGenerator(c, order, levels, 100000).Generate(f, rand.New(rand.NewSource(7)))
	if out == atpg.LimitExceeded {
		t.Fatalf("PODEM aborted on a tiny circuit; raise the limit")
	}
	return out
}

func TestConstantDetection(t *testing.T) {
	c, g := buildConstOne(t)
	e := implic.New(c)
	if e == nil {
		t.Fatal("New returned nil for a small circuit")
	}
	v, known := e.ConstNet(g.ID)
	if !known || v != 1 {
		t.Fatalf("ConstNet(%s) = %d,%v, want 1,true", g.Name, v, known)
	}
	if !e.Impossible(implic.MkLit(g.ID, 0)) {
		t.Errorf("%s=0 should be impossible on a constant-1 net", g.Name)
	}
	if e.Impossible(implic.MkLit(g.ID, 1)) {
		t.Errorf("%s=1 must stay possible", g.Name)
	}
	if st := e.Stats(); st.Constants < 1 {
		t.Errorf("Stats().Constants = %d, want >= 1", st.Constants)
	}
}

func TestConstantFaultsScreenedAndPODEMAgrees(t *testing.T) {
	c, g := buildConstOne(t)
	e := implic.New(c)
	cases := []struct {
		f    *fault.Fault
		want bool
	}{
		// sa1 on a constant-1 net can never be excited.
		{&fault.Fault{Model: fault.StuckAt, Net: g, Value: 1}, true},
		// sa0 would be excitable if the net were observable... but a
		// constant net's value never reaches an output differentially;
		// here g IS the PO, so sa0 is trivially detectable? No: sa0 needs
		// good value 1 (always true) and the site itself is a PO, so it
		// is detectable and must NOT be screened.
		{&fault.Fault{Model: fault.StuckAt, Net: g, Value: 0}, false},
		// Both transition polarities die: slow-to-fall needs g=0 for the
		// launch's excitation, slow-to-rise needs g=0 initialization.
		{&fault.Fault{Model: fault.Transition, Net: g, Value: 1}, true},
		{&fault.Fault{Model: fault.Transition, Net: g, Value: 0}, true},
	}
	for _, tc := range cases {
		if got := e.Undetectable(tc.f); got != tc.want {
			t.Errorf("Undetectable(%v sa/tr%d @ %s) = %v, want %v",
				tc.f.Model, tc.f.Value, tc.f.Net.Name, got, tc.want)
		}
		if tc.f.Model != fault.StuckAt {
			continue
		}
		out := podemOutcome(t, c, tc.f)
		if tc.want && out != atpg.ProvenImpossible {
			t.Errorf("screen says undetectable but PODEM outcome = %v", out)
		}
		if !tc.want && out != atpg.FoundTest {
			t.Errorf("sa%d @ %s: PODEM outcome = %v, want a test", tc.f.Value, tc.f.Net.Name, out)
		}
	}
}

func TestImpliesAndContrapositive(t *testing.T) {
	c, x := buildAbsorb(t)
	e := implic.New(c)
	a := c.NetByName("a")
	b := c.NetByName("b")
	if a == nil || b == nil {
		t.Fatal("missing PI nets")
	}
	// Direct: AND output 1 forces both inputs to 1.
	for _, in := range []*netlist.Net{a, b} {
		if !e.Implies(implic.MkLit(x.ID, 1), implic.MkLit(in.ID, 1)) {
			t.Errorf("x=1 should imply %s=1", in.Name)
		}
		// Contrapositive: input 0 forces the AND output to 0.
		if !e.Implies(implic.MkLit(in.ID, 0), implic.MkLit(x.ID, 0)) {
			t.Errorf("%s=0 should imply x=0 (contrapositive)", in.Name)
		}
	}
	// Implies is reflexive and must not invent facts.
	la := implic.MkLit(a.ID, 1)
	if !e.Implies(la, la) {
		t.Error("Implies must be reflexive")
	}
	if e.Implies(implic.MkLit(a.ID, 1), implic.MkLit(b.ID, 1)) {
		t.Error("a=1 must not imply b=1: the PIs are independent")
	}
}

func TestRedundantStuckAtScreened(t *testing.T) {
	c, x := buildAbsorb(t)
	e := implic.New(c)

	sa0 := &fault.Fault{Model: fault.StuckAt, Net: x, Value: 0}
	if !e.Undetectable(sa0) {
		t.Fatal("x sa0 should be statically proven undetectable (absorption)")
	}
	if out := podemOutcome(t, c, sa0); out != atpg.ProvenImpossible {
		t.Fatalf("soundness: screen proved x sa0 but PODEM outcome = %v", out)
	}

	// x sa1 is detectable (set a=0: y flips 0 -> 1) and must survive.
	sa1 := &fault.Fault{Model: fault.StuckAt, Net: x, Value: 1}
	if e.Undetectable(sa1) {
		t.Fatal("x sa1 is detectable; the screen must not claim it")
	}
	if out := podemOutcome(t, c, sa1); out != atpg.FoundTest {
		t.Fatalf("x sa1: PODEM outcome = %v, want a test", out)
	}
}

func TestBridgeScreen(t *testing.T) {
	c, x := buildAbsorb(t)
	e := implic.New(c)
	a := c.NetByName("a")
	// Dominant bridge a->x: victim=1/aggressor=0 conflicts (x=1 implies
	// a=1); victim=0/aggressor=1 fixes the OR side input to 1, blocking
	// propagation. Both polarities die, so the bridge is undetectable.
	br := &fault.Fault{Model: fault.Bridge, Net: x, Other: a}
	if !e.Undetectable(br) {
		t.Fatal("bridge x<-a should be statically proven undetectable")
	}
	if out := podemOutcome(t, c, br); out != atpg.ProvenImpossible {
		t.Fatalf("soundness: screen proved bridge but PODEM outcome = %v", out)
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	build := func() *implic.Engine {
		c, _ := buildAbsorb(t)
		return implic.New(c)
	}
	f1 := build().Fingerprint()
	f2 := build().Fingerprint()
	if f1 != f2 {
		t.Errorf("Fingerprint differs across identical builds: %x vs %x", f1, f2)
	}
	c, _ := buildConstOne(t)
	if f3 := implic.New(c).Fingerprint(); f3 == f1 {
		t.Errorf("different circuits produced the same fingerprint %x", f3)
	}
}

func TestForEachImpliedAndConstant(t *testing.T) {
	c, x := buildAbsorb(t)
	e := implic.New(c)
	seen := map[implic.Lit]bool{}
	e.ForEachImplied(implic.MkLit(x.ID, 1), func(net int, val uint8) {
		seen[implic.MkLit(net, val)] = true
	})
	a := c.NetByName("a")
	b := c.NetByName("b")
	if !seen[implic.MkLit(a.ID, 1)] || !seen[implic.MkLit(b.ID, 1)] {
		t.Errorf("ForEachImplied(x=1) missed the forced inputs; got %v", seen)
	}

	cc, g := buildConstOne(t)
	ec := implic.New(cc)
	consts := map[int]uint8{}
	ec.ForEachConstant(func(net int, v uint8) { consts[net] = v })
	if v, ok := consts[g.ID]; !ok || v != 1 {
		t.Errorf("ForEachConstant missed %s=1; got %v", g.Name, consts)
	}
}

func TestNilAndEmptyEngine(t *testing.T) {
	var e *implic.Engine
	f := &fault.Fault{Model: fault.StuckAt, Value: 0}
	if e.Undetectable(f) {
		t.Error("nil engine must screen nothing")
	}
	if got := implic.New(netlist.New("empty", lib)); got != nil {
		t.Errorf("New(empty circuit) = %v, want nil", got)
	}
}

// TestScreenAgreesOnMux runs every stuck-at fault of an irredundant
// circuit through the screen and through PODEM: the screen must prove
// nothing undetectable, and PODEM must find a test for every fault.
func TestScreenAgreesOnMux(t *testing.T) {
	c := netlist.New("mux", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	s := c.AddPI("s")
	sn := c.AddGate("u0", lib.ByName("INVX1"), s)
	t1 := c.AddGate("u1", lib.ByName("NAND2X1"), a, sn)
	t2 := c.AddGate("u2", lib.ByName("NAND2X1"), b, s)
	y := c.AddGate("u3", lib.ByName("NAND2X1"), t1, t2)
	c.MarkPO(y)

	order := c.Levelize()
	levels := c.Levels()
	e := implic.New(c)
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			f := &fault.Fault{Model: fault.StuckAt, Net: n, Value: v}
			if e.Undetectable(f) {
				t.Errorf("screen claims sa%d@%s on an irredundant mux", v, n.Name)
				continue
			}
			g := atpg.NewGenerator(c, order, levels, 100000)
			out, tv := g.Generate(f, rand.New(rand.NewSource(3)))
			if out != atpg.FoundTest || tv == nil {
				t.Errorf("search: sa%d@%s outcome %v, want test", v, n.Name, out)
			}
		}
	}
}

// TestUndetectableConcurrent screens one fault list against one engine
// from several goroutines at once, each walking the list in its own order.
// Every verdict must equal the sequential one: concurrent queries never
// share pooled scratch. Run it under -race.
func TestUndetectableConcurrent(t *testing.T) {
	c := bench.MustBuild("sparc_tlu", lib)
	e := implic.New(c)
	list := fuzzFaults(c, 1)
	n := len(list.Faults)
	want := make([]bool, n)
	proven := 0
	for i, f := range list.Faults {
		if want[i] = e.Undetectable(f); want[i] {
			proven++
		}
	}
	if proven == 0 {
		t.Fatal("the screen proved nothing; the test would not notice wrong verdicts")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + w*n/4) % n
				if w%2 == 1 {
					i = n - 1 - i
				}
				if got := e.Undetectable(list.Faults[i]); got != want[i] {
					t.Errorf("goroutine %d: %v screened %v, sequentially %v", w, list.Faults[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
