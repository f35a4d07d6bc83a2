package resyn

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resilience"
)

// journalCircuit is the verdict-log suite's circuit: wb_conmax is the
// fastest benchmark whose sweep accepts several iterations (three).
const journalCircuit = "wb_conmax"

// sweepEnv returns a metered environment with a verdict cache, prewarmed
// with warm when it is non-empty, and the analyzed original circuit.
func sweepEnv(t testing.TB, warm []fcache.ExportedEntry) (*flow.Env, *flow.Design) {
	t.Helper()
	env := flow.NewEnv()
	env.Obs = obs.New()
	env.FaultCache = fcache.New()
	env.FaultCache.ImportWarm(warm)
	orig, err := env.Analyze(bench.MustBuild(journalCircuit, env.Lib), geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	return env, orig
}

// warmVerdicts is the verdict cache a different sweep of the circuit (seed
// 2, MaxQ 3) leaves behind: the content a shared store would prewarm with.
func warmVerdicts(t testing.TB) []fcache.ExportedEntry {
	t.Helper()
	env := flow.NewEnv()
	env.Seed, env.ATPG.Seed = 2, 2
	env.FaultCache = fcache.New()
	if _, err := Run(env, bench.MustBuild(journalCircuit, env.Lib), Options{MaxQ: 3}); err != nil {
		t.Fatal(err)
	}
	return env.FaultCache.Export()
}

// sortedByKey returns the entries in the key order Export uses.
func sortedByKey(es []fcache.ExportedEntry) []fcache.ExportedEntry {
	out := append([]fcache.ExportedEntry(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key[0] != out[j].Key[0] {
			return out[i].Key[0] < out[j].Key[0]
		}
		return out[i].Key[1] < out[j].Key[1]
	})
	return out
}

// sameVerdicts reports whether two key-sorted entry lists are identical.
func sameVerdicts(a, b []fcache.ExportedEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Status != b[i].Status ||
			!bytes.Equal(a[i].Init, b[i].Init) || !bytes.Equal(a[i].Vec, b[i].Vec) {
			return false
		}
	}
	return true
}

// TestVerdictLogMatchesCache is the oracle: at every commit of a journaled
// sweep on a prewarmed cache, the verdicts decoded from the log prefix the
// journal names equal the cache's Export at that commit. After the first
// commit a fifth of the cache is damaged, so the integrity check drops
// entries the log already holds; the commit after the drop must write a new
// log under the journal's other log name.
func TestVerdictLogMatchesCache(t *testing.T) {
	env, orig := sweepEnv(t, warmVerdicts(t))
	journal := filepath.Join(t.TempDir(), "sweep.ckpt")
	commits, rewrites := 0, 0
	var lastCorrupt uint64
	lastLog := ""
	testHookCheckpoint = func(s *state) {
		commits++
		ck, err := LoadCheckpoint(journal)
		if err != nil {
			t.Errorf("commit %d: %v", commits, err)
			return
		}
		if got, want := sortedByKey(ck.verdicts), s.env.FaultCache.Export(); !sameVerdicts(got, want) {
			t.Errorf("commit %d: the log holds %d verdicts, the cache exports %d", commits, len(got), len(want))
		}
		if corrupt := s.env.FaultCache.Stats().Corrupt; corrupt > lastCorrupt {
			rewrites++
			if ck.VerdictLog == lastLog {
				t.Errorf("commit %d: entries were dropped, but the journal still names %s", commits, lastLog)
			}
			lastCorrupt = corrupt
		}
		lastLog = ck.VerdictLog
		if commits == 1 {
			if s.env.FaultCache.Tamper(11, 0.2) == 0 {
				t.Error("tamper damaged nothing")
			}
		}
	}
	defer func() { testHookCheckpoint = nil }()
	if _, err := RunFrom(env, orig, Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	if commits < 2 {
		t.Fatalf("the sweep committed %d iterations, want at least 2", commits)
	}
	if rewrites == 0 {
		t.Fatal("no commit followed an integrity drop; the new-log path went untested")
	}
	names := logNames(journal)
	for _, name := range names {
		if _, err := os.Stat(name); err == nil && filepath.Base(name) != lastLog {
			t.Errorf("%s survives beside the log the journal names", name)
		}
	}
}

// TestVerdictsJournaledOnce: in a finished journaled sweep every verdict is
// written to the log once — resyn/verdicts_journaled equals the number of
// distinct keys in the final log.
func TestVerdictsJournaledOnce(t *testing.T) {
	env, orig := sweepEnv(t, nil)
	journal := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := RunFrom(env, orig, Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[fcache.Key]bool{}
	for _, e := range ck.verdicts {
		keys[e.Key] = true
	}
	got := env.Obs.Counter("resyn/verdicts_journaled").Get()
	if got == 0 || got != int64(len(keys)) {
		t.Fatalf("resyn/verdicts_journaled = %d, distinct keys in the log = %d", got, len(keys))
	}
}

// junkRecords encodes verdicts under keys no circuit produces.
func junkRecords(n int) ([]byte, map[fcache.Key]bool) {
	var buf []byte
	keys := map[fcache.Key]bool{}
	for i := 0; i < n; i++ {
		k := fcache.Key{0xdead0000 + uint64(i), 0xbeef}
		keys[k] = true
		buf = fcache.AppendRecord(buf, fcache.ExportedEntry{Key: k, Status: fault.Undetectable})
	}
	return buf, keys
}

// killedSweep runs the sweep journaled to a fresh directory and stops it
// after its first commit.
func killedSweep(t *testing.T) (journal string, ck *Checkpoint) {
	t.Helper()
	env, orig := sweepEnv(t, nil)
	journal = filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := RunFrom(env, orig, Options{Journal: journal, StopAfterCommits: 1}); !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("stopped sweep returned %v, want ErrInterrupted", err)
	}
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	return journal, ck
}

// TestVerdictLogTailPastPrefix is the crash window between the log append
// and the journal rename: the log holds records the journal does not vouch
// for. Loading ignores them, and the resumed sweep cuts them off before it
// appends, so none reaches a later journal's prefix.
func TestVerdictLogTailPastPrefix(t *testing.T) {
	journal, ck := killedSweep(t)
	junk, junkKeys := junkRecords(5)
	f, err := os.OpenFile(ck.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(junk, 0xff, 0x01)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	again, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatalf("bytes past the journaled prefix failed the load: %v", err)
	}
	if !sameVerdicts(sortedByKey(again.verdicts), sortedByKey(ck.verdicts)) {
		t.Fatal("bytes past the journaled prefix changed the loaded verdicts")
	}

	env, orig := sweepEnv(t, nil)
	if _, err := Resume(env, orig, again, Options{StopAfterCommits: 2}); !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("resumed sweep returned %v, want ErrInterrupted after its next commit", err)
	}
	next, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if next.VerdictLog != ck.VerdictLog {
		t.Errorf("resume moved the log from %s to %s instead of appending", ck.VerdictLog, next.VerdictLog)
	}
	for _, e := range next.verdicts {
		if junkKeys[e.Key] {
			t.Fatal("a record past the old prefix reached the next journal's prefix")
		}
	}
	if got, want := sortedByKey(next.verdicts), env.FaultCache.Export(); !sameVerdicts(got, want) {
		t.Errorf("resumed commit: the log holds %d verdicts, the cache exports %d", len(got), len(want))
	}
}

// TestVerdictLogDamageIsCorrupt: a log shorter than the journaled prefix,
// a flipped byte inside the prefix, and a missing log each fail the load
// with ErrCorrupt.
func TestVerdictLogDamageIsCorrupt(t *testing.T) {
	journal, ck := killedSweep(t)
	good, err := os.ReadFile(ck.logPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(good)) != ck.LogBytes || len(good) < 64 {
		t.Fatalf("log is %d bytes, journal vouches for %d", len(good), ck.LogBytes)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for name, data := range map[string][]byte{
		"short":   good[:len(good)-1],
		"flipped": flipped,
	} {
		if err := os.WriteFile(ck.logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(journal); !errors.Is(err, resilience.ErrCorrupt) {
			t.Errorf("%s log: LoadCheckpoint = %v, want ErrCorrupt", name, err)
		}
	}
	if err := os.Remove(ck.logPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(journal); !errors.Is(err, resilience.ErrCorrupt) {
		t.Errorf("missing log: LoadCheckpoint = %v, want ErrCorrupt", err)
	}
}

// TestFreshRunRestartsStaleLog: a fresh run journaling over the journal and
// logs of an earlier run starts its log over — nothing of the stale logs
// survives in the log it names, and the other stale log is deleted.
func TestFreshRunRestartsStaleLog(t *testing.T) {
	journal, _ := killedSweep(t)
	junk, junkKeys := junkRecords(8)
	names := logNames(journal)
	for _, name := range names {
		if err := os.WriteFile(name, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	env, orig := sweepEnv(t, nil)
	if _, err := RunFrom(env, orig, Options{Journal: journal, StopAfterCommits: 1}); !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("fresh sweep returned %v, want ErrInterrupted", err)
	}
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ck.verdicts {
		if junkKeys[e.Key] {
			t.Fatal("a stale log's record survived into the fresh run's log")
		}
	}
	if st, err := os.Stat(ck.logPath); err != nil || st.Size() != ck.LogBytes {
		t.Fatalf("fresh log: %v, want exactly the %d journaled bytes", err, ck.LogBytes)
	}
	if got, want := sortedByKey(ck.verdicts), env.FaultCache.Export(); !sameVerdicts(got, want) {
		t.Errorf("the log holds %d verdicts, the cache exports %d", len(got), len(want))
	}
	for _, name := range names {
		if _, err := os.Stat(name); err == nil && name != ck.logPath {
			t.Errorf("stale log %s survived", name)
		}
	}
}
