package atpg

import (
	"context"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
)

// buildAbsorbList: x = AND(a,b), y = OR(x,a) — x sa0 is undetectable
// (and statically provable), the rest of the stuck-at universe is not.
func buildAbsorbCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("absorb", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddGate("u0", lib.ByName("AND2X2"), a, b)
	y := c.AddGate("u1", lib.ByName("OR2X2"), x, a)
	c.MarkPO(y)
	return c
}

func stuckAtUniverse(c *netlist.Circuit) *fault.List {
	l := &fault.List{}
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
		}
	}
	return l
}

// TestStaticScreenClassifies: the screen proves the redundant fault with
// zero searches and the run's verdicts match a screen-off run exactly.
func TestStaticScreenClassifies(t *testing.T) {
	c := buildAbsorbCircuit(t)
	lOff := stuckAtUniverse(c)
	off := Run(c, lOff, Config{Seed: 5, Workers: 1})

	lScr := stuckAtUniverse(c)
	scr := Run(c, lScr, Config{Seed: 5, Workers: 1, Static: true})
	if scr.StaticProven == 0 {
		t.Fatal("screen proved nothing on a circuit with a known redundancy")
	}
	if off.StaticProven != 0 {
		t.Fatalf("screen-off run reports StaticProven=%d", off.StaticProven)
	}
	if scr.Detected != off.Detected || scr.Undetectable != off.Undetectable || scr.Aborted != off.Aborted {
		t.Fatalf("verdict totals differ: screen %+v vs off %+v", scr, off)
	}
	for i := range lOff.Faults {
		if lOff.Faults[i].Status != lScr.Faults[i].Status {
			t.Errorf("fault %d: status %v (off) vs %v (screen)", i,
				lOff.Faults[i].Status, lScr.Faults[i].Status)
		}
	}
}

// TestStaticScreenCancellationAtomic: a run cancelled before the
// implication-closure boundary must leave zero static verdicts — the
// phase contributes everything or nothing, so a checkpoint resume never
// sees a partially screened universe.
func TestStaticScreenCancellationAtomic(t *testing.T) {
	c := buildAbsorbCircuit(t)
	l := stuckAtUniverse(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(c, l, Config{Seed: 5, Workers: 1, Static: true, Ctx: ctx})
	if !res.Cancelled {
		t.Fatal("pre-cancelled run should report Cancelled")
	}
	if res.StaticProven != 0 {
		t.Fatalf("cancelled run wrote %d static verdicts; the closure boundary must be atomic", res.StaticProven)
	}
	for _, f := range l.Faults {
		if f.Status != fault.Untried {
			t.Errorf("fault %d has status %v after a pre-cancelled run, want Untried", f.ID, f.Status)
		}
	}
}
