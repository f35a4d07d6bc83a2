package atpg

import (
	"math/rand"
	"reflect"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/switchsim"
)

// escalate_test.go is the SAT tier's differential harness: on small circuits
// the escalator's verdict must match exhaustive enumeration fault by fault,
// a backtrack-starved Run with escalation must reproduce an unlimited
// PODEM run's classification exactly, and everything must stay byte-
// identical across worker counts.

// escCrossCheck resolves one fault through the SAT escalator and compares
// against brute-force enumeration of the given test list.
func escCrossCheck(t *testing.T, cc *fault.Fault, esc *Escalator, eng *faultsim.Engine, tests []faultsim.Test, what string) {
	t.Helper()
	brute := bruteDetectable(eng, cc, tests)
	out, tv, st := esc.Resolve(cc, rand.New(rand.NewSource(11)))
	switch out {
	case FoundTest:
		if !brute {
			t.Fatalf("%s: SAT found a test for a brute-undetectable fault %v", what, cc)
		}
		b := eng.SimBlock([]faultsim.Test{{Init: tv.Init, Vec: tv.Vec}})
		if eng.Detects(cc, b) == 0 {
			t.Fatalf("%s: SAT witness does not detect %v", what, cc)
		}
	case ProvenImpossible:
		if brute {
			t.Fatalf("%s: SAT claims undetectable, brute force detects %v", what, cc)
		}
	case LimitExceeded:
		t.Fatalf("%s: escalator returned LimitExceeded — the solver has no limit", what)
	}
	if out != LimitExceeded && st.Solves == 0 && out == FoundTest {
		t.Fatalf("%s: FoundTest with zero solves", what)
	}
}

// TestEscalatorBruteStuckAt covers stem and fanout-branch stuck-ats on
// random 4-PI circuits.
func TestEscalatorBruteStuckAt(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	singles := allSingle()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		esc := NewEscalator(c)
		eng := faultsim.New(c)
		for _, n := range c.Nets {
			for v := uint8(0); v <= 1; v++ {
				escCrossCheck(t, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v},
					esc, eng, singles, "sat-stuckat")
				if len(n.Fanout) > 1 {
					p := n.Fanout[rng.Intn(len(n.Fanout))]
					escCrossCheck(t, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v,
						BranchGate: p.Gate, BranchPin: p.Pin}, esc, eng, singles, "sat-branch")
				}
			}
		}
	}
}

func TestEscalatorBruteTransition(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	pairs := allPairs()
	for trial := 0; trial < 6; trial++ {
		c := randCircuit(rng, 7)
		esc := NewEscalator(c)
		eng := faultsim.New(c)
		for _, n := range c.Nets {
			for v := uint8(0); v <= 1; v++ {
				escCrossCheck(t, &fault.Fault{Model: fault.Transition, Net: n, Value: v},
					esc, eng, pairs, "sat-transition")
			}
		}
	}
}

func TestEscalatorBruteBridge(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	singles := allSingle()
	for trial := 0; trial < 8; trial++ {
		c := randCircuit(rng, 7)
		esc := NewEscalator(c)
		eng := faultsim.New(c)
		for k := 0; k < 10; k++ {
			a := c.Gates[rng.Intn(len(c.Gates))].Out
			b := c.Gates[rng.Intn(len(c.Gates))].Out
			if a == b {
				continue
			}
			escCrossCheck(t, &fault.Fault{Model: fault.Bridge, Net: a, Other: b},
				esc, eng, singles, "sat-bridge")
		}
	}
}

func TestEscalatorBruteCellAware(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	singles := allSingle()
	pairs := allPairs()
	for trial := 0; trial < 6; trial++ {
		c := randCircuit(rng, 7)
		esc := NewEscalator(c)
		eng := faultsim.New(c)
		for k := 0; k < 6; k++ {
			g := c.Gates[rng.Intn(len(c.Gates))]
			ni := g.Type.NumInputs()
			n := uint(1) << uint(ni)
			mask := uint64(rng.Intn(int(uint64(1)<<n-1)) + 1)
			beh := &switchsim.Behavior{Inputs: ni, StaticMask: mask}
			escCrossCheck(t, &fault.Fault{Model: fault.CellAware, Internal: true, Gate: g, Behavior: beh},
				esc, eng, singles, "sat-cellaware-static")

			pm := make([]uint64, n)
			for j := 0; j < 3; j++ {
				pm[rng.Intn(int(n))] |= 1 << uint(rng.Intn(int(n)))
			}
			dbeh := &switchsim.Behavior{Inputs: ni, PairMask: pm}
			escCrossCheck(t, &fault.Fault{Model: fault.CellAware, Internal: true, Gate: g, Behavior: dbeh},
				esc, eng, pairs, "sat-cellaware-dynamic")
		}
	}
}

// TestEscalationMatchesUnlimitedPODEM is the differential harness of the
// escalation tier inside Run: a backtrack-starved configuration with SAT
// escalation must classify every fault exactly as an effectively unlimited
// PODEM run does — same per-fault statuses, zero Aborted — even though the
// test sets differ (SAT witnesses are not PODEM's vectors).
func TestEscalationMatchesUnlimitedPODEM(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	circuits := []int{25, 40}
	for ci, gates := range circuits {
		c := randCircuit(rng, gates)

		ref := DefaultConfig()
		ref.BacktrackLimit = 1 << 30 // effectively unlimited on a 4-PI circuit
		refSt, _, refRes := runSnapshot(c, ref)
		if refRes.Aborted != 0 {
			t.Fatalf("circuit %d: unlimited reference run aborted %d faults", ci, refRes.Aborted)
		}

		cfg := DefaultConfig()
		cfg.BacktrackLimit = 1 // starve PODEM: almost everything escalates
		cfg.SATEscalate = true
		st, _, res := runSnapshot(c, cfg)
		if res.Aborted != 0 {
			t.Errorf("circuit %d: %d faults still Aborted with escalation on", ci, res.Aborted)
		}
		if res.SATEscalations == 0 {
			t.Errorf("circuit %d: limit=1 run escalated nothing — harness is vacuous", ci)
		}
		if !reflect.DeepEqual(st, refSt) {
			for i := range st {
				if st[i] != refSt[i] {
					t.Errorf("circuit %d fault %d: escalated status %v, unlimited PODEM %v",
						ci, i, st[i], refSt[i])
				}
			}
		}
		if res.Detected != refRes.Detected || res.Undetectable != refRes.Undetectable {
			t.Errorf("circuit %d: partition %d/%d, unlimited PODEM %d/%d",
				ci, res.Detected, res.Undetectable, refRes.Detected, refRes.Undetectable)
		}
	}
}

// TestEscalationByteIdenticalAcrossWorkers extends the engine's scheduling
// contract to the escalation tier: statuses, tests and every SAT counter
// must be identical at any worker count.
func TestEscalationByteIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	c := randCircuit(rng, 40)
	cfg := DefaultConfig()
	cfg.BacktrackLimit = 1
	cfg.SATEscalate = true
	cfg.Workers = 1
	refSt, refTests, refRes := runSnapshot(c, cfg)
	if refRes.SATEscalations == 0 {
		t.Fatal("no escalations at limit=1 — determinism check is vacuous")
	}
	for _, w := range []int{2, 8} {
		cfg.Workers = w
		st, tests, res := runSnapshot(c, cfg)
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("Workers=%d: statuses differ from Workers=1", w)
		}
		if !reflect.DeepEqual(tests, refTests) {
			t.Errorf("Workers=%d: test set differs from Workers=1", w)
		}
		if res.SATEscalations != refRes.SATEscalations || res.SATConflicts != refRes.SATConflicts ||
			res.SATDetected != refRes.SATDetected || res.SATUndetectable != refRes.SATUndetectable ||
			res.SATMemoHits != refRes.SATMemoHits {
			t.Errorf("Workers=%d: SAT counters differ: %+v vs %+v", w, res, refRes)
		}
	}
}

// FuzzCNF drives the Tseitin encoder with fuzz-chosen circuit shapes and
// fault sites, cross-checking every verdict against brute-force enumeration
// and every witness against fault simulation.
func FuzzCNF(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0))
	f.Add(int64(42), uint8(9), uint8(1))
	f.Add(int64(7), uint8(3), uint8(2))
	singles := allSingle()
	pairs := allPairs()
	f.Fuzz(func(t *testing.T, seed int64, gates, model uint8) {
		ng := 3 + int(gates%10)
		rng := rand.New(rand.NewSource(seed))
		c := randCircuit(rng, ng)
		esc := NewEscalator(c)
		eng := faultsim.New(c)
		switch model % 3 {
		case 0: // stuck-at, stem and branch
			for _, n := range c.Nets {
				escCrossCheck(t, &fault.Fault{Model: fault.StuckAt, Net: n, Value: uint8(seed) & 1},
					esc, eng, singles, "fuzz-stuckat")
				if len(n.Fanout) > 1 {
					p := n.Fanout[0]
					escCrossCheck(t, &fault.Fault{Model: fault.StuckAt, Net: n, Value: uint8(seed) & 1,
						BranchGate: p.Gate, BranchPin: p.Pin}, esc, eng, singles, "fuzz-branch")
				}
			}
		case 1: // transition
			for _, n := range c.Nets {
				escCrossCheck(t, &fault.Fault{Model: fault.Transition, Net: n, Value: uint8(seed >> 1 & 1)},
					esc, eng, pairs, "fuzz-transition")
			}
		case 2: // bridge between two distinct gate outputs
			if len(c.Gates) >= 2 {
				a := c.Gates[rng.Intn(len(c.Gates))].Out
				b := c.Gates[rng.Intn(len(c.Gates))].Out
				if a != b {
					escCrossCheck(t, &fault.Fault{Model: fault.Bridge, Net: a, Other: b},
						esc, eng, singles, "fuzz-bridge")
				}
			}
		}
	})
}
