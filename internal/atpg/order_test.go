package atpg_test

import (
	"io"
	"math/rand"
	"reflect"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
)

// orderShort is the subset TestStaticAfterRandom keeps under -short.
var orderShort = map[string]bool{"sparc_spu": true, "tv80": true, "synth1k": true}

// orderRun is what one Run leaves behind: the result (timing cleared), every
// fault's status, and the digest of the ledger it wrote (one stage record
// plus every fault's status, tier, backtracks and conflicts).
type orderRun struct {
	res    atpg.Result
	status []fault.Status
	digest string
}

// TestStaticAfterRandom: running the static screen after the random
// patterns (the default) and before them (the reference order) gives the
// same run on the DFM fault universe of the twelve paper circuits and
// synth1k, cold and over a warm cache: the same Result (tests byte for
// byte, counts, StaticProven, tiers), per-fault status and tier, and cache
// content in the same store order. It also checks why: no fault the screen
// proves is detected by any of Run's random blocks.
func TestStaticAfterRandom(t *testing.T) {
	defer atpg.SetStaticFirst(false)
	names := append(append([]string(nil), bench.Names...), "synth1k")
	for _, name := range names {
		if testing.Short() && !orderShort[name] {
			continue
		}
		env := flow.NewEnv()
		c := bench.MustBuild(name, env.Lib)
		d, err := env.PhysicalOnly(c, geom.Rect{})
		if err != nil {
			t.Fatal(err)
		}
		universe := func() *fault.List {
			l, _, _ := dfm.BuildFaultsStats(c, d.Lay, env.Prof)
			return l
		}
		run := func(staticFirst bool, cache *fcache.Cache) orderRun {
			atpg.SetStaticFirst(staticFirst)
			l := universe()
			cfg := env.ATPG
			cfg.Workers = 2
			cfg.Cache = cache
			cfg.Ledger = obs.NewLedger(io.Discard)
			cfg.Stage = "analyze"
			res := atpg.Run(c, l, cfg)
			res.Slowest = nil
			st := make([]fault.Status, l.Len())
			for i, f := range l.Faults {
				st[i] = f.Status
			}
			return orderRun{res, st, cfg.Ledger.Digest()}
		}
		var runs [2][2]orderRun // [staticFirst][cold, warm]
		var stored [2][]fcache.ExportedEntry
		var exported [2][]fcache.ExportedEntry
		for i, first := range []bool{true, false} {
			cache := fcache.New()
			runs[i][0] = run(first, cache)
			runs[i][1] = run(first, cache)
			stored[i], _, _ = cache.Since(fcache.Mark{})
			exported[i] = cache.Export()
		}
		for j, pass := range []string{"cold", "warm"} {
			ref, got := runs[0][j], runs[1][j]
			if !reflect.DeepEqual(got.res, ref.res) {
				t.Errorf("%s %s: Result differs from the screen-first run:\n got %+v\nwant %+v",
					name, pass, summary(got.res), summary(ref.res))
			}
			if !reflect.DeepEqual(got.status, ref.status) {
				t.Errorf("%s %s: fault statuses differ from the screen-first run", name, pass)
			}
			if got.digest != ref.digest {
				t.Errorf("%s %s: ledger digest %s, screen-first %s", name, pass, got.digest, ref.digest)
			}
		}
		if runs[1][0].res.StaticProven == 0 {
			t.Errorf("%s: the screen proved nothing", name)
		}
		if !reflect.DeepEqual(exported[1], exported[0]) {
			t.Errorf("%s: cache export differs from the screen-first runs'", name)
		}
		if !reflect.DeepEqual(stored[1], stored[0]) {
			t.Errorf("%s: cache store order differs from the screen-first runs'", name)
		}
		checkScreenRandomDisjoint(t, name, c, universe(), env.ATPG)
	}
}

// summary is a Result without its test vectors, for failure messages.
func summary(r atpg.Result) atpg.Result {
	r.Tests = r.Tests[:0:0]
	return r
}

// checkScreenRandomDisjoint fails when a random block of Run detects a fault
// the static screen proves undetectable.
func checkScreenRandomDisjoint(t *testing.T, name string, c *netlist.Circuit, l *fault.List, cfg atpg.Config) {
	t.Helper()
	eng := implic.New(c)
	if eng == nil || len(c.PIs) == 0 {
		t.Fatalf("%s: no implication closure or no inputs", name)
	}
	var proven []*fault.Fault
	for _, f := range l.Faults {
		if eng.Undetectable(f) {
			proven = append(proven, f)
		}
	}
	pool := faultsim.NewPool(c, 1)
	det := make([]logic.Word, len(proven))
	rng := rand.New(rand.NewSource(cfg.Seed))
	for blk := 0; blk < cfg.RandomBlocks; blk++ {
		pool.DetectsMany(proven, pool.SimBlock(atpg.RandomBlock(rng, len(c.PIs))), det)
		for i, w := range det {
			if w != 0 {
				t.Errorf("%s: random block %d detects %v, which the screen proves undetectable", name, blk, proven[i])
			}
		}
	}
}
