package resyn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/chaos"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resilience"
)

// reuseCase is one sweep of the reuse oracle, at MaxQ 5.
type reuseCase struct {
	name string
	// stubborn runs the sweep under worker panics that no retry absorbs:
	// committed designs keep quarantined (aborted) faults, so they are
	// screened again and their analyses are not memoized.
	stubborn bool
}

// reuseCases: tv80 and sparc_tlu repeat candidates between commits, tv80
// through its backtracking groups; wb_conmax commits designs with
// quarantined faults.
var reuseCases = []reuseCase{{name: "tv80"}, {name: "sparc_tlu"}, {name: "wb_conmax", stubborn: true}}

// reuseEnv returns a metered environment and the analyzed original circuit,
// with a fresh verdict cache installed after the original analysis, so the
// sweep's screen of the original design seeds it.
func reuseEnv(t *testing.T, rc reuseCase) (*flow.Env, *flow.Design) {
	t.Helper()
	env := flow.NewEnv()
	env.Obs = obs.New()
	if rc.stubborn {
		// The static screen would prove away most searches the injector
		// needs as targets.
		env.ATPG.Static = false
		env.ATPG.InjectPanic = chaos.StubbornPanics(77, 0.02)
	}
	orig, err := env.Analyze(bench.MustBuild(rc.name, env.Lib), geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	env.FaultCache = fcache.New()
	return env, orig
}

// reuseRun is what one journaled, recorded sweep leaves behind.
type reuseRun struct {
	res           *Result
	final         flow.Metrics
	export        []fcache.ExportedEntry
	journal, vlog []byte
	ledger        []obs.LedgerRecord
	digest        string
	reused        int64
}

// recordedRun sweeps the circuit at MaxQ 5 with candidate reuse on or off,
// journaled into a fresh directory and with a ledger attached after the
// original analysis.
func recordedRun(t *testing.T, rc reuseCase, reuse bool) reuseRun {
	t.Helper()
	testHookNoReuse = !reuse
	defer func() { testHookNoReuse = false }()
	env, orig := reuseEnv(t, rc)
	var buf bytes.Buffer
	env.Ledger = obs.NewLedger(&buf)
	journal := filepath.Join(t.TempDir(), "sweep.ckpt")
	res, err := RunFrom(env, orig, Options{MaxQ: 5, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	run := reuseRun{
		res:    res,
		final:  res.Final.Metrics(),
		export: env.FaultCache.Export(),
		digest: env.Ledger.Digest(),
		reused: env.Obs.Counter("resyn/candidates_reused").Get(),
	}
	run.final.ATPGSeconds = 0
	if err := env.Ledger.Close(); err != nil {
		t.Fatal(err)
	}
	if run.ledger, err = obs.ReadLedger(&buf); err != nil {
		t.Fatal(err)
	}
	if run.journal, err = os.ReadFile(journal); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if run.vlog, err = os.ReadFile(ck.logPath); err != nil {
		t.Fatal(err)
	}
	return run
}

// ledgerBlocks splits a ledger into its stage blocks (a stage record and
// its verdicts) and iter records, each in canonical form; all reports
// whether each block is a stage whose every verdict came from the cache
// without a search.
func ledgerBlocks(t *testing.T, recs []obs.LedgerRecord) (blocks [][]byte, all []bool) {
	t.Helper()
	for start, end := 0, 1; start < len(recs); start, end = end, end+1 {
		for end < len(recs) && recs[end].T == "verdict" {
			end++
		}
		head := recs[start]
		if head.T == "summary" {
			continue
		}
		canon, err := obs.CanonicalLedger(recs[start:end])
		if err != nil {
			t.Fatal(err)
		}
		cached := head.T == "stage" && head.Searches == 0 && head.Tiers.Cache == head.Tiers.Total()
		for _, r := range recs[start+1 : end] {
			cached = cached && r.Tier == obs.TierCache
		}
		blocks, all = append(blocks, canon), append(all, cached)
	}
	return blocks, all
}

// droppedCacheBlocks checks that got is want with some blocks left out,
// each an all-cache stage, and returns how many.
func droppedCacheBlocks(t *testing.T, want, got []obs.LedgerRecord) (int, error) {
	wb, cached := ledgerBlocks(t, want)
	gb, _ := ledgerBlocks(t, got)
	dropped, j := 0, 0
	for i, b := range wb {
		switch {
		case j < len(gb) && bytes.Equal(b, gb[j]):
			j++
		case cached[i]:
			dropped++
		default:
			return 0, fmt.Errorf("reference block %d is missing or differs, and is not an all-cache stage:\n%s", i, b)
		}
	}
	if j < len(gb) {
		return 0, fmt.Errorf("%d blocks past the reference's end", len(gb)-j)
	}
	return dropped, nil
}

// TestCandidateReuseOracle is the reuse oracle: a sweep that reuses
// repeated candidates' evaluations ends exactly where the reference sweep,
// which evaluates every attempt in full, ends — same tables, verdict
// cache, checkpoint journal and verdict log — and its ledger is the
// reference's without some all-cache stage blocks.
func TestCandidateReuseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("resynthesis sweeps are slow under -short")
	}
	for _, rc := range reuseCases {
		t.Run(rc.name, func(t *testing.T) {
			ref := recordedRun(t, rc, false)
			got := recordedRun(t, rc, true)
			if ref.reused != 0 {
				t.Fatalf("the reference run reused %d candidates", ref.reused)
			}
			if got.reused == 0 {
				t.Fatal("no candidate was reused; the oracle compares nothing")
			}
			if got.res.BestQ != ref.res.BestQ || !reflect.DeepEqual(got.res.Trace, ref.res.Trace) ||
				!reflect.DeepEqual(got.res.Iters, ref.res.Iters) || !reflect.DeepEqual(got.final, ref.final) {
				t.Errorf("results differ:\nreuse %d %+v %+v\nref   %d %+v %+v",
					got.res.BestQ, got.res.Trace, got.final, ref.res.BestQ, ref.res.Trace, ref.final)
			}
			if got.res.SynthCalls != ref.res.SynthCalls {
				t.Errorf("SynthCalls %d, reference %d: every attempt still synthesizes", got.res.SynthCalls, ref.res.SynthCalls)
			}
			if got.res.PDCalls > ref.res.PDCalls {
				t.Errorf("PDCalls %d, reference %d", got.res.PDCalls, ref.res.PDCalls)
			}
			if rc.stubborn && (got.res.Quarantined == 0 || len(got.res.Trace) == 0) {
				t.Fatalf("%d faults quarantined, %d commits: no committed design keeps an aborted fault",
					got.res.Quarantined, len(got.res.Trace))
			}
			if !sameVerdicts(got.export, ref.export) {
				t.Errorf("verdict caches differ: %d vs %d entries", len(got.export), len(ref.export))
			}
			if !bytes.Equal(got.journal, ref.journal) {
				t.Error("checkpoint journals differ")
			}
			if !bytes.Equal(got.vlog, ref.vlog) {
				t.Errorf("verdict logs differ: %d vs %d bytes", len(got.vlog), len(ref.vlog))
			}
			dropped, err := droppedCacheBlocks(t, ref.ledger, got.ledger)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d candidates reused, %d of %d PDesign() calls and %d all-cache ledger blocks saved",
				got.reused, ref.res.PDCalls-got.res.PDCalls, ref.res.PDCalls, dropped)
		})
	}
}

// TestCandidateReuseKillAndResume: the memo is cleared at every commit, so
// a sweep killed right after its first commit and resumed starts the
// continuation with the memo the uninterrupted run had there; the resumed
// ledger's digest equals the uninterrupted run's, and the continuation
// reuses candidates.
func TestCandidateReuseKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("resynthesis sweeps are slow under -short")
	}
	rc := reuseCases[0]
	want := recordedRun(t, rc, true)

	dir := t.TempDir()
	journal, ledgerPath := filepath.Join(dir, "sweep.ckpt"), filepath.Join(dir, "sweep.jsonl")
	env, orig := reuseEnv(t, rc)
	var err error
	if env.Ledger, err = obs.CreateLedger(ledgerPath); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFrom(env, orig, Options{MaxQ: 5, Journal: journal, StopAfterCommits: 1}); !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("stopped sweep returned %v, want ErrInterrupted", err)
	}
	if err := env.Ledger.Close(); err != nil {
		t.Fatal(err)
	}

	env, orig = reuseEnv(t, rc)
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if env.Ledger, err = obs.ResumeLedger(ledgerPath, len(ck.Commits)); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(env, orig, ck, Options{MaxQ: 5})
	if err != nil {
		t.Fatal(err)
	}
	digest := env.Ledger.Digest()
	if err := env.Ledger.Close(); err != nil {
		t.Fatal(err)
	}
	if digest != want.digest {
		t.Errorf("resumed ledger digest %s, uninterrupted %s", digest, want.digest)
	}
	if !reflect.DeepEqual(res.Trace, want.res.Trace) {
		t.Errorf("resumed trace %+v, uninterrupted %+v", res.Trace, want.res.Trace)
	}
	if n := env.Obs.Counter("resyn/candidates_reused").Get(); n == 0 {
		t.Error("the resumed continuation reused no candidate")
	}
}

// TestReuseReplaysEvaluation: a reused evaluation has the effect its first
// evaluation had on the sweep — a screen rejection, an area violation that
// blocks the q pass, or analyzed numbers the decisions read — without
// analyzing anything, unless the sweep would commit the candidate.
func TestReuseReplaysEvaluation(t *testing.T) {
	env, orig := reuseEnv(t, reuseCase{name: "wb_conmax"})
	delay, power := orig.Timing.CriticalDelay, orig.Power.Total
	tgt := target{phase: 2, p2: 0.5, u: 100, smax: 10, uInt: 50}
	for _, tc := range []struct {
		name    string
		ev      evaluation
		status  attemptStatus
		blocked bool
	}{
		{"screen rejection", evaluation{uInt: 50}, attemptNoUIntGain, false},
		{"area violation", evaluation{uInt: 49, areaViolation: true}, attemptAreaViolation, true},
		{"not accepted", evaluation{uInt: 49, u: 100, smax: 1, f: 10, delay: delay, power: power}, attemptOK, false},
		{"constraints broken", evaluation{uInt: 49, u: 99, smax: 1, f: 10, delay: 2 * delay, power: power}, attemptOK, false},
	} {
		s := &state{env: env, orig: orig, cur: orig, res: &Result{}}
		cand, status := s.reuse(nil, tc.ev, tgt)
		if status != tc.status || s.constraintBlocked != tc.blocked || s.iterReused != 1 || s.res.PDCalls != 0 {
			t.Errorf("%s: status %d blocked %v reused %d PDCalls %d, want status %d blocked %v reused 1 PDCalls 0",
				tc.name, status, s.constraintBlocked, s.iterReused, s.res.PDCalls, tc.status, tc.blocked)
		}
		if status == attemptOK && (cand.d != nil || cand.ev != tc.ev) {
			t.Errorf("%s: candidate %+v, want the memoized evaluation without a design", tc.name, cand)
		}
	}
}

// TestCommitScreenBaseline: a commit empties the memo, and the screen's
// baseline becomes the committed design's own internal-undetectable count,
// which equals a screen of its netlist; a design with an aborted fault is
// screened instead.
func TestCommitScreenBaseline(t *testing.T) {
	env, orig := reuseEnv(t, reuseCase{name: "wb_conmax"})
	s := &state{env: env, orig: orig, cur: orig, res: &Result{BestQ: -1},
		memo: map[[32]byte]evaluation{{1}: {}}}
	s.recordCommit(orig, commitRecord{})
	if len(s.memo) != 0 {
		t.Error("the commit left the previous design's evaluations in the memo")
	}
	if want := env.UndetectableInternal(orig.C); !s.uintValid || s.curUIntNet != want {
		t.Fatalf("baseline %d (valid %v), a screen counts %d", s.curUIntNet, s.uintValid, want)
	}
	for _, f := range orig.Faults.Faults {
		if f.Internal {
			f.Status = fault.Aborted
			break
		}
	}
	s.recordCommit(orig, commitRecord{})
	if s.uintValid {
		t.Fatal("a design with an aborted fault was not left to the screen")
	}
}
