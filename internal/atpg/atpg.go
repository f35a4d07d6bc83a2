package atpg

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/par"
	"dfmresyn/internal/resilience"
)

// Config controls the test-generation run.
type Config struct {
	// BacktrackLimit bounds each PODEM search; a fault whose search
	// exhausts the limit goes to the SAT tier, or is marked Aborted when
	// SATEscalate is off.
	BacktrackLimit int
	// RandomBlocks is the number of 64-test random-pair blocks simulated
	// before the deterministic phase.
	RandomBlocks int
	// Seed drives all randomness (pattern fill, random phase). PODEM
	// searches draw from a per-fault stream derived from (Seed, fault ID),
	// so a fault's outcome never depends on scheduling.
	Seed int64
	// NoCompact disables reverse-order test-set compaction.
	NoCompact bool
	// Workers bounds the classification worker pool; 0 selects
	// runtime.NumCPU(). Any value produces byte-identical results: work is
	// split into fixed-size batches merged in fault-ID order.
	Workers int
	// Cache, when non-nil, is consulted before classification and updated
	// afterwards. Cached Undetectable verdicts are trusted (the key is a
	// structural hash of the fault's whole support cone); cached Detected
	// verdicts only contribute their witness vectors, which are replayed
	// through fault simulation — so a stale entry degrades to a miss.
	Cache *fcache.Cache
	// Obs, when non-nil, receives per-phase spans and engine counters
	// (PODEM searches and backtracks, cache replays, collateral drops).
	// Tracing never alters classification: results are byte-identical with
	// Obs nil or set, and the nil path costs no allocations.
	Obs *obs.Tracer
	// Ctx, when non-nil, cancels the run cooperatively. Cancellation is
	// observed only at deterministic boundaries — between cache-replay and
	// random blocks, and between PODEM batches (an in-flight batch is
	// discarded whole, never half-merged) — so the resolved set of a
	// cancelled run is always a consistent prefix of the engine's merge
	// sequence. A nil Ctx never cancels.
	Ctx context.Context
	// Static enables the static implication screen: it builds the
	// implication closure once per run and classifies statically-proven
	// undetectable faults before any PODEM search, leaving every table
	// byte-identical to an unscreened run. The screen is applied atomically
	// at the implication-closure boundary: a cancellation observed before it
	// skips it entirely, so a cancelled run never carries partial static
	// verdicts. DefaultConfig turns it on; tests turn it off to check that
	// it changes no table.
	Static bool
	// InjectPanic, when non-nil, is the chaos hook: it is consulted before
	// every PODEM search with the fault's ID and the attempt number (0 for
	// the first search, 1 for the post-panic retry) and a true return
	// panics the worker. Production runs leave it nil; internal/chaos
	// provides deterministic seed-driven implementations.
	InjectPanic func(faultID, attempt int) bool
	// SATEscalate enables the CDCL escalation tier: every PODEM search that
	// exhausts its backtrack limit is re-encoded as a CNF instance over the
	// fault's support/output cone and solved to completion, so the fault
	// ends Detected (with a witness) or Undetectable — never Aborted.
	// Escalations run in the sequential merge, keyed by the same structural
	// cone hashes the verdict cache uses, with undetectability proofs
	// memoized within the run so cone-isomorphic hard faults are proven
	// once. Verdicts equal what an unlimited PODEM search would return, so
	// tables match the unlimited baseline byte for byte. DefaultConfig
	// turns it on; only tests turn it off, to run raw PODEM as an oracle.
	SATEscalate bool
	// Ledger, when non-nil, receives the run's flight-recorder records: one
	// stage record (labelled Stage) followed by one verdict record per
	// classified fault, in fault-ID order. Like Obs, the ledger only
	// observes — verdicts are byte-identical with Ledger nil or set — and a
	// cancelled run emits nothing (its statuses are a prefix, not a stage).
	// Per-search wall micros are measured only when a ledger is attached and
	// are excluded from the ledger's deterministic digest.
	Ledger *obs.Ledger
	// Stage labels this run's ledger records ("analyze", "analyze-incr",
	// "verify").
	Stage string
}

// DefaultBacktrackLimit is the per-search PODEM backtrack budget used
// throughout the experiments: the single source for DefaultConfig, the
// zero-value fallback in Run, and (via Config.BacktrackLimit) the top bucket
// of the backtracks-per-search histogram.
const DefaultBacktrackLimit = 1000

// DefaultConfig returns the configuration used throughout the experiments:
// the static screen, then PODEM under DefaultBacktrackLimit, with the SAT
// tier behind it. Both search tiers are complete, so the limit only decides
// which one settles a fault, never its verdict. Most searches end well
// inside the budget; the rare hard ones past it (redundancy proofs that
// would exhaust the value space of a wide reconvergent cone) go to the CDCL
// solver, which settles them far faster than more backtracking would.
func DefaultConfig() Config {
	return Config{BacktrackLimit: DefaultBacktrackLimit, RandomBlocks: 6, Seed: 1, Static: true, SATEscalate: true}
}

// Result summarizes a test-generation run.
type Result struct {
	Tests        []faultsim.Test
	Detected     int
	Undetectable int
	Aborted      int
	// CacheLookups counts fault-verdict cache consultations; CacheHits
	// counts the faults classified without a PODEM search thanks to the
	// cache (trusted undetectability proofs plus faults detected while
	// replaying cached witness vectors).
	CacheLookups int
	CacheHits    int
	// StaticProven counts the faults the static implication screen
	// classified Undetectable with zero PODEM searches (Config.Static).
	// They are included in Undetectable.
	StaticProven int
	// SATEscalations counts the faults the CDCL tier resolved after their
	// PODEM search exhausted the backtrack limit (Config.SATEscalate);
	// SATDetected / SATUndetectable split those by verdict, and SATMemoHits
	// counts faults settled by a within-run memoized undetectability proof
	// of a cone-isomorphic fault instead of a fresh solve. SATConflicts
	// totals the solver's learned-conflict count across every escalation.
	SATEscalations  int
	SATDetected     int
	SATUndetectable int
	SATMemoHits     int
	SATConflicts    int64
	// Recovered counts worker panics the engine absorbed: each one was
	// retried on a fresh generator (and usually succeeded — see
	// Quarantined for the ones that did not).
	Recovered int
	// Quarantined lists the IDs of faults whose search panicked twice —
	// once on a pooled worker and once more on a fresh retry generator.
	// They are marked Aborted instead of crashing the process, in
	// fault-list order.
	Quarantined []int
	// Cancelled reports that Config.Ctx was cancelled before the run
	// completed. Statuses already assigned are final and consistent;
	// Resolved lists exactly which faults they cover.
	Cancelled bool
	// Resolved, populated only on cancellation, lists the IDs of every
	// fault with a final status (Detected, Undetectable or Aborted) at the
	// abort boundary, in fault-list order.
	Resolved []int
	// Tiers is the provenance breakdown: which engine tier decided each
	// classified fault. By construction Cache == CacheHits, Implic ==
	// StaticProven, SAT == SATEscalations and SATMemo == SATMemoHits;
	// Collateral counts faults detected by simulation without their own
	// search (random-phase patterns and collateral drops in the merge), and
	// Podem the faults whose own PODEM search decided them (including
	// quarantined and limit-aborted searches).
	Tiers obs.TierCounts
	// Slowest lists the run's costliest searches, wall micros descending
	// (ties by fault ID). Populated only when Config.Ledger is set — timing
	// is never measured otherwise.
	Slowest []obs.SlowSearch
}

// podemBatch is the number of faults classified concurrently between merge
// points. It is a fixed constant — independent of the worker count — so that
// the set of speculative searches, and therefore every result, is identical
// for Workers=1 and Workers=N.
const podemBatch = 64

// Run generates a test set T detecting every detectable fault in l and
// proves the remaining faults undetectable (the set U), mirroring the
// paper's Section II procedure. Fault statuses in l are updated in place.
//
// The per-fault classification work (fault simulation and PODEM searches)
// is sharded over cfg.Workers workers; all status, credit and test-set
// bookkeeping runs sequentially in fault-ID order between parallel stages,
// so the output is a pure function of (circuit, fault list, cfg, cache
// content) regardless of worker count or scheduling.
func Run(c *netlist.Circuit, l *fault.List, cfg Config) Result {
	if cfg.BacktrackLimit <= 0 {
		cfg.BacktrackLimit = DefaultBacktrackLimit
	}
	workers := par.Count(cfg.Workers)
	ctx := cfg.Ctx
	pool := faultsim.NewPool(c, workers)
	pool.Instrument(cfg.Obs)
	pool.Bind(ctx)
	order := pool.Engine(0).Circuit().Levelize()
	levels := c.Levels()
	npi := len(c.PIs)
	rng := rand.New(rand.NewSource(cfg.Seed))

	res := Result{}
	var tests []faultsim.Test

	// witness[i] is the test that first detected l.Faults[i] (zero Test if
	// none); it becomes the cached proof obligation for Detected verdicts.
	// keys[i] is the fault's structural cone key (zero when uncacheable).
	var witness []faultsim.Test
	var keys []fcache.Key

	// prov[i] records which tier decided l.Faults[i] plus the search cost
	// attributable to it — the per-verdict provenance the ledger emits and
	// Result.Tiers summarizes. Wall micros are only measured when a ledger
	// is attached (timed); everything else in prov is deterministic.
	type provInfo struct {
		tier obs.Tier
		bt   int
		conf int64
		us   int64
	}
	prov := make([]provInfo, len(l.Faults))
	timed := cfg.Ledger != nil
	var runT0 int64
	if timed {
		runT0 = obs.NowMicros()
	}

	// detectBlock computes detection words for every listed fault against
	// the block in parallel, then applies statuses, first-detection credit
	// and witnesses sequentially in fault-ID order. cand are the block's
	// candidate tests; credited tests are appended to the returned slice.
	scratch := make([]int, 0, len(l.Faults))
	activeOf := func(pred func(*fault.Fault) bool) []int {
		scratch = scratch[:0]
		for i, f := range l.Faults {
			if pred(f) {
				scratch = append(scratch, i)
			}
		}
		return scratch
	}
	untried := func(f *fault.Fault) bool { return f.Status == fault.Untried }
	unclassified := func(f *fault.Fault) bool {
		return f.Status == fault.Untried || f.Status == fault.Aborted
	}
	faultBuf := make([]*fault.Fault, 0, len(l.Faults))
	detBuf := make([]logic.Word, len(l.Faults))
	detectBlock := func(cand []faultsim.Test, pred func(*fault.Fault) bool, tier obs.Tier) []faultsim.Test {
		b := pool.SimBlock(cand)
		active := activeOf(pred)
		faults := faultBuf[:0]
		for _, i := range active {
			faults = append(faults, l.Faults[i])
		}
		det := detBuf[:len(active)]
		pool.DetectsMany(faults, b, det)
		credit := make([]bool, len(cand))
		for j, i := range active {
			if det[j] == 0 {
				continue
			}
			f := l.Faults[i]
			f.Status = fault.Detected
			prov[i].tier = tier
			if tier == obs.TierCache {
				res.CacheHits++
			}
			first := 0
			for det[j]>>uint(first)&1 == 0 {
				first++
			}
			credit[first] = true
			if witness != nil {
				witness[i] = cand[first]
			}
		}
		var kept []faultsim.Test
		for p, ok := range credit {
			if ok {
				kept = append(kept, cand[p])
			}
		}
		return kept
	}

	// Phase 0: consult the verdict cache. Undetectable verdicts are taken
	// as-is; Detected verdicts contribute their witness vectors, which are
	// replayed as seed tests with first-detection credit and dropping —
	// sound even for stale or colliding entries, which simply detect
	// nothing and fall through to PODEM.
	// hasher serves both the verdict cache and the SAT escalation memo; it
	// is built once when either consumer is active.
	var hasher *fcache.Hasher
	if cfg.Cache != nil || cfg.SATEscalate {
		hasher = fcache.NewHasher(c)
		keys = make([]fcache.Key, len(l.Faults))
	}
	// hit[i] records that l.Faults[i]'s key was found in the cache, so the
	// epilogue need not store it again.
	var hit []bool
	if cfg.Cache != nil {
		spCache := obs.Start(cfg.Obs, "atpg/cache", obs.Int("faults", len(l.Faults)))
		witness = make([]faultsim.Test, len(l.Faults))
		hit = make([]bool, len(l.Faults))
		seeds := witnessSet{seen: make(map[uint64]int)}
		for i, f := range l.Faults {
			if f.Status != fault.Untried {
				continue
			}
			keys[i] = hasher.FaultKey(f)
			if keys[i].Zero() {
				continue
			}
			res.CacheLookups++
			e, ok := cfg.Cache.Lookup(keys[i])
			if !ok {
				continue
			}
			hit[i] = true
			switch e.Status {
			case fault.Undetectable:
				f.Status = fault.Undetectable
				res.CacheHits++
				prov[i].tier = obs.TierCache
			case fault.Detected:
				if len(e.Vec) != npi || (e.Init != nil && len(e.Init) != npi) {
					continue // witness from a different PI interface
				}
				seeds.add(faultsim.Test{Init: e.Init, Vec: e.Vec})
			}
		}
		for start := 0; start < len(seeds.tests) && !resilience.Done(ctx); start += 64 {
			end := min(start+64, len(seeds.tests))
			tests = append(tests, detectBlock(seeds.tests[start:end], untried, obs.TierCache)...)
		}
		cfg.Obs.Counter("atpg/cache_replayed_witnesses").Add(int64(len(seeds.tests)))
		spCache.Annotate(obs.Int("replayed_witnesses", len(seeds.tests)))
		spCache.End()
	}

	// Phase 0.5: static implication screen. The closure is built once per
	// run and every still-untried fault whose excitation or propagation
	// requirements conflict with it is proven Undetectable without a
	// search. Verdicts land in the same status field the PODEM merge
	// writes, so the cache epilogue publishes them under the usual cone
	// keys and later runs reuse them as ordinary cached proofs. The whole
	// phase is skipped when cancellation is already observed — it either
	// contributes every verdict the closure supports or none, never a
	// partial set.
	if cfg.Static && !resilience.Done(ctx) {
		anyUntried := false
		for _, f := range l.Faults {
			if f.Status == fault.Untried {
				anyUntried = true
				break
			}
		}
		if anyUntried {
			spStatic := obs.Start(cfg.Obs, "atpg/static", obs.Int("faults", len(l.Faults)))
			eng := implic.New(c)
			for i, f := range l.Faults {
				if f.Status == fault.Untried && eng.Undetectable(f) {
					f.Status = fault.Undetectable
					res.StaticProven++
					prov[i].tier = obs.TierImplic
				}
			}
			st := eng.Stats()
			cfg.Obs.Counter("atpg/static_proven").Add(int64(res.StaticProven))
			cfg.Obs.Counter("atpg/static_constants").Add(int64(st.Constants))
			cfg.Obs.Counter("atpg/static_implications").Add(int64(st.Implications))
			spStatic.Annotate(obs.Int("proven", res.StaticProven),
				obs.Int("constants", st.Constants))
			spStatic.End()
		}
	}
	// Phase 1: random pattern pairs with fault dropping; keep only tests
	// that are first to detect at least one fault. The shared rng draws the
	// same candidate vectors for every worker count and cache state.
	spRandom := obs.Start(cfg.Obs, "atpg/random", obs.Int("blocks", cfg.RandomBlocks))
	for blk := 0; blk < cfg.RandomBlocks && !resilience.Done(ctx); blk++ {
		if npi == 0 {
			break
		}
		cand := make([]faultsim.Test, 64)
		for i := range cand {
			cand[i] = faultsim.Test{Init: randomVec(rng, npi), Vec: randomVec(rng, npi)}
		}
		tests = append(tests, detectBlock(cand, untried, obs.TierCollateral)...)
	}
	spRandom.End()

	// Phase 2: PODEM per remaining fault, in fixed-size batches. Each batch
	// is searched in parallel — every fault with its own rng stream seeded
	// from (cfg.Seed, fault ID) — then merged in fault-ID order: a fault
	// collaterally detected by a test emitted earlier in the merge discards
	// its speculative outcome, exactly as if it had never been searched.
	// Counter handles are resolved once; on a nil tracer they are nil and
	// every Add below is a free no-op.
	cSearches := cfg.Obs.Counter("atpg/podem_searches")
	cBacktracks := cfg.Obs.Counter("atpg/podem_backtracks")
	cCollateral := cfg.Obs.Counter("atpg/collateral_drops")
	// Run-local mirrors of the search counters feed the ledger's stage
	// record (the obs counters aggregate across runs and may be nil).
	var totSearches, totBacktracks int64
	// The histogram's top bucket tracks the configured limit, so telemetry
	// from a raised or lowered limit is never silently truncated.
	hbounds := make([]float64, 0, 9)
	for _, b := range []float64{0, 1, 4, 16, 64, 256, 1024, 4096} {
		if b < float64(cfg.BacktrackLimit) {
			hbounds = append(hbounds, b)
		}
	}
	hbounds = append(hbounds, float64(cfg.BacktrackLimit))
	hBacktracks := cfg.Obs.Histogram("atpg/podem_backtracks_per_search", hbounds...)
	gens := make([]*Generator, workers)
	newGen := func() *Generator {
		return NewGenerator(c, order, levels, cfg.BacktrackLimit)
	}
	remaining := append([]int(nil), activeOf(unclassified)...)
	spPodem := obs.Start(cfg.Obs, "atpg/podem", obs.Int("remaining", len(remaining)))
	type outcomeRec struct {
		out SearchOutcome
		tv  *TestVec
		bt  int   // PODEM backtracks spent on this fault's searches
		us  int64 // wall micros, measured only when a ledger is attached
	}
	outcomes := make([]outcomeRec, podemBatch)
	quar := make([]bool, podemBatch)
	batch := make([]int, 0, podemBatch)
	// search runs one fault's PODEM search under the quarantine contract:
	// the worker's pooled generator is taken (nilled out) for the duration
	// and handed back only on clean return, so a panic mid-search strands
	// the possibly-corrupted generator instead of the next fault inheriting
	// it. Outcomes are identical whether a pooled or fresh generator runs
	// the search — a Generator carries no cross-fault state — which is why
	// the post-panic retry below reproduces the uninjured run exactly.
	search := func(g *Generator, j, attempt int) *Generator {
		f := l.Faults[batch[j]]
		if cfg.InjectPanic != nil && cfg.InjectPanic(f.ID, attempt) {
			panic(fmt.Sprintf("chaos: injected worker panic on fault %d (attempt %d)", f.ID, attempt))
		}
		frng := faultRand(cfg.Seed, f.ID)
		bt0 := g.Backtracks()
		var us0 int64
		if timed {
			us0 = obs.NowMicros()
		}
		out, tv := g.Generate(f, frng)
		var us int64
		if timed {
			us = obs.NowMicros() - us0
		}
		outcomes[j] = outcomeRec{out, tv, g.Backtracks() - bt0, us}
		return g
	}
	cRecovered := cfg.Obs.Counter("atpg/worker_panics_recovered")
	cQuarantined := cfg.Obs.Counter("atpg/faults_quarantined")

	// SAT escalation tier: LimitExceeded outcomes are re-resolved to
	// completion in the sequential merge (never inside a parallel batch), so
	// memo reads/writes, counters and verdicts stay scheduling-invariant.
	var esc *Escalator
	var satMemo map[fcache.Key]bool
	cSatEsc := cfg.Obs.Counter("atpg/sat_escalations")
	cSatSolves := cfg.Obs.Counter("atpg/sat_solves")
	cSatConflicts := cfg.Obs.Counter("atpg/sat_conflicts")
	cSatDetected := cfg.Obs.Counter("atpg/sat_detected")
	cSatUndetectable := cfg.Obs.Counter("atpg/sat_undetectable")
	cSatMemoHits := cfg.Obs.Counter("atpg/sat_memo_hits")
	if cfg.SATEscalate {
		esc = NewEscalator(c)
		satMemo = make(map[fcache.Key]bool)
	}
	escalate := func(i int, f *fault.Fault) (SearchOutcome, *TestVec, obs.Tier, int64) {
		if keys[i].Zero() {
			keys[i] = hasher.FaultKey(f)
		}
		if !keys[i].Zero() && satMemo[keys[i]] {
			res.SATMemoHits++
			cSatMemoHits.Inc()
			return ProvenImpossible, nil, obs.TierSATMemo, 0
		}
		srng := faultRand(cfg.Seed^satSeedSalt, f.ID)
		out, tv, sst := esc.Resolve(f, srng)
		res.SATEscalations++
		res.SATConflicts += sst.Conflicts
		cSatEsc.Inc()
		cSatSolves.Add(int64(sst.Solves))
		cSatConflicts.Add(sst.Conflicts)
		switch out {
		case FoundTest:
			res.SATDetected++
			cSatDetected.Inc()
		case ProvenImpossible:
			res.SATUndetectable++
			cSatUndetectable.Inc()
			if !keys[i].Zero() {
				satMemo[keys[i]] = true
			}
		}
		return out, tv, obs.TierSAT, sst.Conflicts
	}
	cursor := 0
	for cursor < len(remaining) {
		batch = batch[:0]
		for cursor < len(remaining) && len(batch) < podemBatch {
			i := remaining[cursor]
			cursor++
			if unclassified(l.Faults[i]) {
				batch = append(batch, i)
			}
		}
		if len(batch) == 0 {
			break
		}
		for j := range quar {
			quar[j] = false
		}
		rep := par.EachGuard(ctx, len(batch), workers, 1, func(w, j int) {
			g := gens[w]
			gens[w] = nil
			if g == nil {
				g = newGen()
			}
			gens[w] = search(g, j, 0)
		}, func(j int) {
			// Retry once on a brand-new generator; a second panic
			// quarantines the fault (EachGuard recovers it too).
			search(newGen(), j, 1)
		})
		if rep.Err != nil {
			// Cancelled mid-batch: discard the whole batch unmerged, so the
			// resolved set stays a batch-prefix of the merge sequence.
			break
		}
		res.Recovered += rep.Recovered
		cRecovered.Add(int64(rep.Recovered))
		for _, j := range rep.Quarantined {
			quar[j] = true
		}
		for j, i := range batch {
			if quar[j] {
				// Both attempts panicked: outcomes[j] is stale garbage.
				// Quarantine the fault as Aborted — an honest "the engine
				// could not finish this search" — instead of dying.
				f := l.Faults[i]
				if unclassified(f) {
					f.Status = fault.Aborted
					prov[i].tier = obs.TierPodem
					res.Quarantined = append(res.Quarantined, f.ID)
					cQuarantined.Inc()
				}
				continue
			}
			// Engine-cost telemetry is recorded for every search run, even
			// ones whose outcome a collateral drop discards — the cost was
			// paid either way. The sequential merge keeps counter values
			// deterministic, not just totals.
			cSearches.Inc()
			cBacktracks.Add(int64(outcomes[j].bt))
			hBacktracks.Observe(float64(outcomes[j].bt))
			totSearches++
			totBacktracks += int64(outcomes[j].bt)
			f := l.Faults[i]
			if !unclassified(f) {
				cCollateral.Inc()
				continue // dropped by an earlier test in this merge
			}
			out, escTV := outcomes[j].out, outcomes[j].tv
			tier, conf, us := obs.TierPodem, int64(0), outcomes[j].us
			if out == LimitExceeded && esc != nil {
				var esc0 int64
				if timed {
					esc0 = obs.NowMicros()
				}
				out, escTV, tier, conf = escalate(i, f)
				if timed {
					us += obs.NowMicros() - esc0
				}
			}
			prov[i] = provInfo{tier, outcomes[j].bt, conf, us}
			switch out {
			case FoundTest:
				tv := escTV
				t := faultsim.Test{Init: tv.Init, Vec: tv.Vec}
				tests = append(tests, t)
				f.Status = fault.Detected
				if witness != nil {
					witness[i] = t
				}
				// Drop collaterally-detected faults (the new test is
				// already credited: it detects f).
				b := pool.SimBlock([]faultsim.Test{t})
				active := activeOf(unclassified)
				faults := faultBuf[:0]
				for _, k := range active {
					faults = append(faults, l.Faults[k])
				}
				det := detBuf[:len(active)]
				pool.DetectsMany(faults, b, det)
				for dj, k := range active {
					if det[dj] != 0 {
						l.Faults[k].Status = fault.Detected
						prov[k].tier = obs.TierCollateral
						cCollateral.Inc()
						if witness != nil {
							witness[k] = t
						}
					}
				}
			case ProvenImpossible:
				f.Status = fault.Undetectable
			case LimitExceeded:
				f.Status = fault.Aborted
			}
		}
	}

	spPodem.Annotate(obs.Int("recovered", res.Recovered),
		obs.Int("quarantined", len(res.Quarantined)))
	spPodem.End()

	// Phase 3: reverse-order compaction — keep only tests that are first
	// to detect some fault when simulating in reverse order. A run already
	// cancelled skips it (compaction of a partial test set is meaningless);
	// a cancellation arriving *during* it is caught by the finalize below,
	// which marks the whole run cancelled so the half-compacted set is
	// discarded by the caller rather than reported as complete.
	if !cfg.NoCompact && len(tests) > 0 && !resilience.Done(ctx) {
		spCompact := obs.Start(cfg.Obs, "atpg/compact", obs.Int("tests", len(tests)))
		rev := make([]faultsim.Test, len(tests))
		for i, t := range tests {
			rev[len(tests)-1-i] = t
		}
		per := pool.DetectedBy(l, rev)
		var kept []faultsim.Test
		for i := len(rev) - 1; i >= 0; i-- {
			if per[i] > 0 {
				kept = append(kept, rev[i])
			}
		}
		tests = kept
		spCompact.Annotate(obs.Int("kept", len(kept)))
		spCompact.End()
	}

	// Cancellation finalize: whatever phase the cancel landed in, the run
	// reports Cancelled plus exactly which fault IDs carry a final verdict
	// at the abort boundary. Statuses are only ever written in sequential
	// merge code, so this set is a consistent prefix of the merge sequence.
	if resilience.Done(ctx) {
		res.Cancelled = true
		for _, f := range l.Faults {
			if f.Status != fault.Untried {
				res.Resolved = append(res.Resolved, f.ID)
			}
		}
		cfg.Obs.Counter("atpg/cancelled_runs").Inc()
	}

	// Epilogue: publish verdicts. Stores run sequentially in fault-ID
	// order with first-write-wins semantics, so the cache content is as
	// deterministic as the run itself. Aborted verdicts are never cached,
	// and a cancelled run publishes nothing — the cache content stays a
	// function of completed runs only. A key phase 0 found is skipped: its
	// intact entry is still stored (the cache drops only damaged entries),
	// so a second store would be a no-op.
	if cfg.Cache != nil && !res.Cancelled {
		for i, f := range l.Faults {
			if keys[i].Zero() || hit[i] {
				continue
			}
			switch f.Status {
			case fault.Undetectable:
				cfg.Cache.Store(keys[i], fcache.Entry{Status: fault.Undetectable})
			case fault.Detected:
				if witness[i].Vec != nil {
					cfg.Cache.Store(keys[i], fcache.Entry{
						Status: fault.Detected,
						Init:   witness[i].Init,
						Vec:    witness[i].Vec,
					})
				}
			}
		}
	}

	res.Tests = tests
	for i, f := range l.Faults {
		switch f.Status {
		case fault.Detected:
			res.Detected++
		case fault.Undetectable:
			res.Undetectable++
		case fault.Aborted:
			res.Aborted++
		}
		if f.Status != fault.Untried {
			res.Tiers.Add(prov[i].tier)
		}
	}

	// Flight-recorder emission: one stage record, then every verdict in
	// fault-ID order — all from state the sequential merge wrote, so the
	// records (minus timings) are byte-identical at any worker count. A
	// cancelled run emits nothing: its statuses are a prefix of a stage,
	// and the resumed run will re-analyze and emit the complete stage.
	if cfg.Ledger != nil && !res.Cancelled {
		cfg.Ledger.Stage(obs.LedgerRecord{
			Stage:        cfg.Stage,
			Circuit:      c.Name,
			Gates:        len(c.Gates),
			Faults:       len(l.Faults),
			Detected:     res.Detected,
			Undetectable: res.Undetectable,
			Aborted:      res.Aborted,
			Tiers:        res.Tiers,
			Searches:     totSearches,
			Backtracks:   totBacktracks,
			Conflicts:    res.SATConflicts,
			Micros:       obs.NowMicros() - runT0,
		})
		for i, f := range l.Faults {
			if f.Status == fault.Untried {
				continue
			}
			cfg.Ledger.Verdict(obs.LedgerRecord{
				Fault:  f.ID,
				Status: f.Status.String(),
				Tier:   prov[i].tier,
				BT:     prov[i].bt,
				Conf:   prov[i].conf,
				Micros: prov[i].us,
			})
		}
	}
	if timed {
		// The run's costliest searches, for the report's slow-search block.
		// Only faults that ran (or escalated) their own search carry timing.
		var slow []obs.SlowSearch
		for i, f := range l.Faults {
			switch prov[i].tier {
			case obs.TierPodem, obs.TierSAT, obs.TierSATMemo:
				slow = append(slow, obs.SlowSearch{
					Fault: f.ID, Tier: prov[i].tier,
					Backtracks: prov[i].bt, Micros: prov[i].us,
				})
			}
		}
		sort.Slice(slow, func(a, b int) bool {
			if slow[a].Micros != slow[b].Micros {
				return slow[a].Micros > slow[b].Micros
			}
			return slow[a].Fault < slow[b].Fault
		})
		if len(slow) > 5 {
			slow = slow[:5]
		}
		res.Slowest = slow
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.Counter("atpg/faults_classified").Add(int64(len(l.Faults)))
		reg.Counter("atpg/detected").Add(int64(res.Detected))
		reg.Counter("atpg/undetectable").Add(int64(res.Undetectable))
		reg.Counter("atpg/aborted").Add(int64(res.Aborted))
		reg.Counter("atpg/tests_kept").Add(int64(len(res.Tests)))
		reg.Counter("fcache/lookups").Add(int64(res.CacheLookups))
		reg.Counter("fcache/hits").Add(int64(res.CacheHits))
	}
	return res
}

// witnessSet deduplicates replayed cache witnesses by content, keeping
// first-occurrence order. seen maps a content hash to the witness's index in
// tests; a hash already taken by a different witness probes the next key,
// so adding a witness compares bytes and allocates no key. A nil Init and an
// npi-long one differ in length, so they stay distinct.
type witnessSet struct {
	seen  map[uint64]int
	tests []faultsim.Test
	h     maphash.Hash
}

func (s *witnessSet) add(t faultsim.Test) {
	s.h.Reset()
	s.h.Write(t.Vec)
	s.h.Write(t.Init)
	for k := s.h.Sum64(); ; k++ {
		i, ok := s.seen[k]
		if !ok {
			s.seen[k] = len(s.tests)
			s.tests = append(s.tests, t)
			return
		}
		if bytes.Equal(s.tests[i].Vec, t.Vec) && bytes.Equal(s.tests[i].Init, t.Init) {
			return
		}
	}
}

// satSeedSalt decorrelates the escalation tier's witness-fill rng stream
// from the PODEM search stream of the same fault: both derive from
// faultSeed, but over different run seeds.
const satSeedSalt int64 = 0x5eedc0de

// faultSeed derives the per-fault rng seed: a splitmix64-style mix of the
// run seed and the fault ID, so each fault's search consumes an independent,
// scheduling-invariant random stream.
func faultSeed(seed int64, id int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// faultRand returns the rng stream of fault id under run seed: the stream of
// rand.New(rand.NewSource(faultSeed(seed, id))), seeded on its first read.
// Only a search that finds a test fills a vector from it, so a search that
// finds none never pays for seeding (and allocating) a source.
func faultRand(seed int64, id int) *rand.Rand {
	return rand.New(&lazySource{seed: faultSeed(seed, id)})
}

// lazySource is a math/rand source that seeds itself on its first read.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first read
}

func (s *lazySource) Int63() int64 { return s.source().Int63() }

func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func randomVec(rng *rand.Rand, n int) []uint8 {
	v := make([]uint8, n)
	for i := range v {
		v[i] = uint8(rng.Intn(2))
	}
	return v
}
