// Flight-recorder gates for the whole pipeline: the ledger's canonical form
// is byte-identical at any worker count; a run killed after iteration k and
// resumed produces two ledgers whose canonical concatenation equals the
// uninterrupted run's; and per-tier verdict provenance reconciles exactly
// with the engine's own counters — every classified fault appears in the
// ledger exactly once, decided by exactly one tier.
package dfmresyn

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/resyn"
)

// recordedSweep runs the full q-sweep with a flight recorder attached and
// returns the ledger's canonical bytes, its digest, and the sweep result.
// The recorder attaches after the original analysis — the resume protocol
// re-runs that analysis in the resuming process, so the sweep ledger starts
// at the first iteration in both the golden and the resumed run.
func recordedSweep(t *testing.T, name string, workers int, opt resyn.Options, resumeFrom string) ([]byte, string, *resyn.Result) {
	t.Helper()
	env := flow.NewEnv()
	env.Workers = workers
	env.FaultCache = fcache.New()
	c := bench.MustBuild(name, env.Lib)
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	env.Ledger = ledger

	var r *resyn.Result
	if resumeFrom != "" {
		ck, lerr := resyn.LoadCheckpoint(resumeFrom)
		if lerr != nil {
			t.Fatal(lerr)
		}
		r, err = resyn.Resume(env, orig, ck, opt)
	} else {
		r, err = resyn.RunFrom(env, orig, opt)
	}
	if err != nil && !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatal(err)
	}
	digest := ledger.Digest()
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := obs.CanonicalLedger(recs)
	if err != nil {
		t.Fatal(err)
	}
	// The digest a reader recomputes equals the writer's.
	if rd, err := obs.LedgerDigest(recs); err != nil || rd != digest {
		t.Fatalf("reader digest %s (err %v) != writer digest %s", rd, err, digest)
	}
	return canon, digest, r
}

// TestLedgerWorkersDifferential: the tentpole determinism gate. The sweep's
// ledger — every stage, verdict and iteration record, tiers included — is
// byte-identical in canonical form at one worker and at eight.
func TestLedgerWorkersDifferential(t *testing.T) {
	name := "sparc_spu"
	c1, d1, _ := recordedSweep(t, name, 1, resyn.Options{}, "")
	c8, d8, _ := recordedSweep(t, name, 8, resyn.Options{}, "")
	if d1 != d8 {
		t.Errorf("ledger digest differs across worker counts: %s vs %s", d1, d8)
	}
	if !bytes.Equal(c1, c8) {
		t.Errorf("canonical ledgers differ across worker counts:\n--- workers=1:\n%s--- workers=8:\n%s", c1, c8)
	}
	if len(c1) == 0 {
		t.Fatal("sweep recorded an empty ledger")
	}
}

// TestLedgerKillAndResume: a sweep killed after iteration k journals its
// verdict-cache content alongside the commits; the resumed process imports
// it, replays silently, and continues recording — so the canonical
// concatenation of the two partial ledgers equals the uninterrupted run's,
// byte for byte, even though tier attribution (cache vs fresh search)
// depends on the cache history the kill would otherwise have destroyed.
func TestLedgerKillAndResume(t *testing.T) {
	name := "sparc_spu"
	golden, _, gr := recordedSweep(t, name, 0, resyn.Options{}, "")
	commits := len(gr.Trace)
	if commits == 0 {
		t.Fatalf("%s: golden sweep accepted no iterations", name)
	}
	kills := []int{1}
	if commits > 1 {
		kills = append(kills, (commits+1)/2)
	}
	for _, k := range kills {
		journal := filepath.Join(t.TempDir(), "sweep.ckpt")
		part1, _, killed := recordedSweep(t, name, 0, resyn.Options{Journal: journal, StopAfterCommits: k}, "")
		if !killed.Interrupted || len(killed.Trace) != k {
			t.Fatalf("kill at %d: Interrupted=%v commits=%d", k, killed.Interrupted, len(killed.Trace))
		}
		part2, _, resumed := recordedSweep(t, name, 0, resyn.Options{}, journal)
		if !resumed.Resumed || resumed.ReplayedCommits != k {
			t.Fatalf("kill at %d: Resumed=%v replayed=%d", k, resumed.Resumed, resumed.ReplayedCommits)
		}
		if got := append(append([]byte(nil), part1...), part2...); !bytes.Equal(golden, got) {
			t.Errorf("kill at %d/%d: canonical(golden) != canonical(part1)+canonical(part2)\n--- golden:\n%s--- concatenated:\n%s",
				k, commits, golden, got)
		}
	}
}

// analyzeWithLedger runs one analysis against env (building the circuit
// fresh) and returns the decoded ledger records of that analysis alone.
func analyzeWithLedger(t *testing.T, env *flow.Env, name string) (*flow.Design, []obs.LedgerRecord) {
	t.Helper()
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	env.Ledger = ledger
	defer func() { env.Ledger = nil }()
	c := bench.MustBuild(name, env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return d, recs
}

// TestLedgerTierReconciliation: the acceptance criterion tying the ledger to
// the engine's own books. Every fault appears exactly once with exactly one
// deciding tier; the stage record's tier breakdown equals both the recount
// over its verdicts and Result.Tiers; and the tier counts reconcile with the
// engine counters they shadow (cache == CacheHits, implic == StaticProven,
// sat == SATEscalations, sat-memo == SATMemoHits, total == classified).
func TestLedgerTierReconciliation(t *testing.T) {
	for _, name := range []string{"wb_conmax", "sparc_ifu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env := flow.NewEnv()
			env.FaultCache = fcache.New()
			cold, coldRecs := analyzeWithLedger(t, env, name)
			warm, warmRecs := analyzeWithLedger(t, env, name) // cache now hot
			if warm.Result.CacheHits == 0 {
				t.Fatal("warm analysis hit nothing — the cache tier is untested")
			}
			for _, run := range []struct {
				label string
				d     *flow.Design
				recs  []obs.LedgerRecord
			}{{"cold", cold, coldRecs}, {"warm", warm, warmRecs}} {
				var stages, verdicts int
				var stageRec obs.LedgerRecord
				var recount obs.TierCounts
				seen := map[int]int{}
				for _, rec := range run.recs {
					switch rec.T {
					case "stage":
						stages++
						stageRec = rec
					case "verdict":
						verdicts++
						seen[rec.Fault]++
						recount.Add(rec.Tier)
					}
				}
				if stages != 1 {
					t.Fatalf("%s: %d stage records for one analysis", run.label, stages)
				}
				res := run.d.Result
				if verdicts != run.d.Faults.Len() || verdicts != stageRec.Faults {
					t.Errorf("%s: %d verdicts for %d faults (stage says %d)",
						run.label, verdicts, run.d.Faults.Len(), stageRec.Faults)
				}
				for id, n := range seen {
					if n != 1 {
						t.Errorf("%s: fault %d recorded %d times", run.label, id, n)
					}
				}
				if recount != stageRec.Tiers || recount != res.Tiers {
					t.Errorf("%s: tier breakdowns disagree: verdicts=%+v stage=%+v result=%+v",
						run.label, recount, stageRec.Tiers, res.Tiers)
				}
				if res.Tiers.Cache != res.CacheHits {
					t.Errorf("%s: tier cache=%d, CacheHits=%d", run.label, res.Tiers.Cache, res.CacheHits)
				}
				if res.Tiers.Implic != res.StaticProven {
					t.Errorf("%s: tier implic=%d, StaticProven=%d", run.label, res.Tiers.Implic, res.StaticProven)
				}
				if res.Tiers.SAT != res.SATEscalations {
					t.Errorf("%s: tier sat=%d, SATEscalations=%d", run.label, res.Tiers.SAT, res.SATEscalations)
				}
				if res.Tiers.SATMemo != res.SATMemoHits {
					t.Errorf("%s: tier sat-memo=%d, SATMemoHits=%d", run.label, res.Tiers.SATMemo, res.SATMemoHits)
				}
				if got, want := res.Tiers.Total(), res.Detected+res.Undetectable+res.Aborted; got != want {
					t.Errorf("%s: tier total %d != %d classified faults", run.label, got, want)
				}
				if stageRec.Detected != res.Detected || stageRec.Undetectable != res.Undetectable ||
					stageRec.Aborted != res.Aborted {
					t.Errorf("%s: stage partition %d/%d/%d != result %d/%d/%d", run.label,
						stageRec.Detected, stageRec.Undetectable, stageRec.Aborted,
						res.Detected, res.Undetectable, res.Aborted)
				}
				// Verdict statuses mirror the fault list itself.
				byID := map[int]string{}
				for _, rec := range run.recs {
					if rec.T == "verdict" {
						byID[rec.Fault] = rec.Status
					}
				}
				for _, f := range run.d.Faults.Faults {
					if got := byID[f.ID]; got != f.Status.String() {
						t.Errorf("%s: fault %d ledger status %q != list status %q",
							run.label, f.ID, got, f.Status.String())
					}
				}
			}
		})
	}
}

// TestLedgerFullSweepCoverage: across a full q-sweep, every analysis stage's
// verdict block is complete (one verdict per fault of that stage's
// fault list) and iteration records carry the tier work of the committed
// design — the "exactly once per analysis" shape obsdiff's stage pairing
// relies on.
func TestLedgerFullSweepCoverage(t *testing.T) {
	name := "sparc_spu"
	env := flow.NewEnv()
	env.FaultCache = fcache.New()
	c := bench.MustBuild(name, env.Lib)
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	env.Ledger = ledger
	r, err := resyn.RunFrom(env, orig, resyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var stages, iters int
	var open *obs.LedgerRecord // current stage
	pending := 0               // verdicts still owed to it
	for i := range recs {
		rec := recs[i]
		switch rec.T {
		case "stage":
			if pending != 0 {
				t.Fatalf("stage %q started with %d verdicts missing from the previous stage", rec.Stage, pending)
			}
			if rec.Stage != "analyze-incr" && rec.Stage != "verify" {
				t.Errorf("sweep ledger contains unexpected stage %q", rec.Stage)
			}
			stages++
			open = &recs[i]
			pending = rec.Faults
		case "verdict":
			if open == nil {
				t.Fatal("verdict before any stage record")
			}
			pending--
		case "iter":
			iters++
		}
	}
	if pending != 0 {
		t.Errorf("final stage short %d verdicts", pending)
	}
	if iters != len(r.Trace) {
		t.Errorf("%d iter records for %d accepted iterations", iters, len(r.Trace))
	}
	if stages == 0 {
		t.Fatal("sweep emitted no analysis stages")
	}
	// The sweep result's aggregate tier totals cover at least the per-
	// iteration breakdowns it recorded.
	var fromIters obs.TierCounts
	for _, it := range r.Iters {
		fromIters.Merge(it.Tiers)
	}
	if fromIters.Total() > r.Tiers.Total() {
		t.Errorf("iteration tier totals %d exceed sweep aggregate %d", fromIters.Total(), r.Tiers.Total())
	}
}
