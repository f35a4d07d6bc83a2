package fcache

import (
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/library"
	"dfmresyn/internal/place"
	"dfmresyn/internal/route"
)

// directKey is FaultKey's absorb sequence with nothing memoized: the
// reference the per-behaviour prefix must reproduce bit for bit.
func directKey(h *Hasher, f *fault.Fault) Key {
	k := absorb(absorb(Key{}, tagFault), uint64(f.Model))
	switch f.Model {
	case fault.StuckAt, fault.Transition:
		if !h.liveNet(f.Net) {
			return Key{}
		}
		k = absorb(k, uint64(f.Value))
		k = combine(k, h.tfi[f.Net.ID])
		k = combine(k, h.cone[f.Net.ID])
		if f.BranchGate != nil {
			if !h.liveGate(f.BranchGate) {
				return Key{}
			}
			k = absorb(absorb(k, tagBranch), uint64(f.BranchPin))
			k = combine(k, h.gateSig[f.BranchGate.ID])
			k = combine(k, h.cone[f.BranchGate.Out.ID])
		}
		return k
	case fault.Bridge:
		if !h.liveNet(f.Net) || !h.liveNet(f.Other) {
			return Key{}
		}
		k = combine(k, h.tfi[f.Net.ID])
		k = combine(k, h.cone[f.Net.ID])
		k = combine(k, h.tfi[f.Other.ID])
		k = combine(k, h.cone[f.Other.ID])
		return k
	case fault.CellAware:
		if !h.liveGate(f.Gate) || f.Behavior == nil {
			return Key{}
		}
		b := f.Behavior
		k = absorb(absorb(k, uint64(b.Inputs)), b.StaticMask)
		k = absorb(k, uint64(len(b.PairMask)))
		for _, pm := range b.PairMask {
			k = absorb(k, pm)
		}
		k = combine(k, h.gateSig[f.Gate.ID])
		k = combine(k, h.cone[f.Gate.Out.ID])
		return k
	}
	return Key{}
}

// TestFaultKeyMatchesDirect: every DFM fault's key on the twelve paper
// circuits and synth1k equals the direct absorb sequence, on the first
// look-up of its behaviour and on every later one.
func TestFaultKeyMatchesDirect(t *testing.T) {
	lib := library.OSU018Like()
	prof := dfm.ProfileLibrary(lib)
	names := append(append([]string(nil), bench.Names...), "synth1k")
	if testing.Short() {
		names = []string{"sparc_spu", "tv80"}
	}
	for _, name := range names {
		c := bench.MustBuild(name, lib)
		p, err := place.Place(c, 0.70, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := dfm.BuildFaults(c, route.Route(p), prof)
		h := NewHasher(c)
		cellAware := 0
		for pass := 0; pass < 2; pass++ {
			for _, f := range l.Faults {
				got, want := h.FaultKey(f), directKey(h, f)
				if got != want {
					t.Fatalf("%s pass %d: fault %v keys %x, direct %x", name, pass, f, got, want)
				}
				if got.Zero() {
					t.Fatalf("%s: fault %v has no key", name, f)
				}
				if pass == 0 && f.Model == fault.CellAware {
					cellAware++
				}
			}
		}
		if cellAware == 0 || len(h.behavior) == 0 || len(h.behavior) >= cellAware {
			t.Errorf("%s: %d behaviour prefixes for %d cell-aware faults", name, len(h.behavior), cellAware)
		}
	}
}
