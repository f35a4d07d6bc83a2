package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfmresyn/internal/obs"
)

// The contract under test: obsdiff's exit codes — 0 for equivalent ledgers
// (tier migrations allowed), 1 for verdict flips and structural differences,
// 2 for timing regressions only, 3 for unreadable input — and the categories
// it reports.

// emit is one recording step against a live ledger.
type emit func(l *obs.Ledger)

func stage(name, circuit string, us int64) emit {
	return func(l *obs.Ledger) {
		l.Stage(obs.LedgerRecord{Stage: name, Circuit: circuit, Gates: 4, Faults: 2, Micros: us})
	}
}

func verdict(fault int, status string, tier obs.Tier, us int64) emit {
	return func(l *obs.Ledger) {
		l.Verdict(obs.LedgerRecord{Fault: fault, Status: status, Tier: tier, Micros: us})
	}
}

func iter(n, u int) emit {
	return func(l *obs.Ledger) {
		l.Iter(obs.LedgerRecord{Q: 5, Phase: 1, Iter: n, U: u, Smax: 3, F: 10})
	}
}

// writeLedger records the given events into a fresh ledger file and returns
// its path.
func writeLedger(t *testing.T, name string, events ...emit) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	l, err := obs.CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		e(l)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// diff runs obsdiff and returns (stdout, stderr, exit code).
func diff(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// baseline is a two-stage run with one iteration commit.
func baseline() []emit {
	return []emit{
		stage("analyze", "c17", 100),
		verdict(0, "detected", obs.TierCollateral, 5),
		verdict(1, "undetectable", obs.TierPodem, 900),
		iter(1, 3),
		stage("verify", "c17", 80),
		verdict(0, "detected", obs.TierCollateral, 4),
		verdict(1, "undetectable", obs.TierPodem, 850),
	}
}

func TestSelfDiffIsClean(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	b := writeLedger(t, "b.jsonl", baseline()...)
	out, _, code := diff(t, a, b)
	if code != 0 {
		t.Fatalf("identical ledgers exited %d\n%s", code, out)
	}
	if !strings.Contains(out, "ledgers are equivalent") {
		t.Errorf("missing equivalence verdict:\n%s", out)
	}
	// Both digest lines must agree — the digest ignores the timing fields,
	// which is the only way two separate runs can ever match.
	lines := strings.Split(out, "\n")
	da := strings.Fields(lines[0])
	db := strings.Fields(lines[1])
	if da[len(da)-1] != db[len(db)-1] {
		t.Errorf("digests differ for identical content:\n%s", out)
	}
}

func TestTimingNeverAffectsEquivalence(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	slow := baseline()
	slow[2] = verdict(1, "undetectable", obs.TierPodem, 90000) // 100x slower
	b := writeLedger(t, "b.jsonl", slow...)
	if out, _, code := diff(t, a, b); code != 0 {
		t.Fatalf("timing-only difference exited %d without -regress\n%s", code, out)
	}
	out, _, code := diff(t, "-regress", "2", a, b)
	if code != 2 {
		t.Fatalf("100x slowdown under -regress=2 exited %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "1 timing regressions") {
		t.Errorf("regression not counted:\n%s", out)
	}
	// The same slowdown under the floor is ignored.
	if _, _, code := diff(t, "-regress", "2", "-minus", "1000000", a, b); code != 0 {
		t.Errorf("sub-floor slowdown still flagged")
	}
}

func TestVerdictFlipExitsOne(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	flipped := baseline()
	flipped[6] = verdict(1, "aborted", obs.TierPodem, 850)
	b := writeLedger(t, "b.jsonl", flipped...)
	out, _, code := diff(t, a, b)
	if code != 1 {
		t.Fatalf("verdict flip exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "fault 1 flipped undetectable -> aborted") {
		t.Errorf("flip not described:\n%s", out)
	}
}

func TestMissingFaultExitsOne(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	b := writeLedger(t, "b.jsonl", baseline()[:6]...) // last verdict gone
	if out, _, code := diff(t, a, b); code != 1 {
		t.Fatalf("missing verdict exited %d, want 1\n%s", code, out)
	}
	// Symmetric: the extra fault is caught from either side.
	if out, _, code := diff(t, b, a); code != 1 {
		t.Fatalf("extra verdict exited %d, want 1\n%s", code, out)
	}
}

func TestTierMigrationIsInformational(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	moved := baseline()
	moved[2] = verdict(1, "undetectable", obs.TierSAT, 900)
	b := writeLedger(t, "b.jsonl", moved...)
	out, _, code := diff(t, a, b)
	if code != 0 {
		t.Fatalf("tier migration exited %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "fault 1 migrated podem -> sat") {
		t.Errorf("migration not described:\n%s", out)
	}
	if !strings.Contains(out, "1 tier migrations") {
		t.Errorf("migration not counted:\n%s", out)
	}
}

func TestIterationDivergenceExitsOne(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	diverged := baseline()
	diverged[3] = iter(1, 2) // different U after the commit
	b := writeLedger(t, "b.jsonl", diverged...)
	if out, _, code := diff(t, a, b); code != 1 {
		t.Fatalf("diverged iteration trace exited %d, want 1\n%s", code, out)
	}
	// A field change is a flip even when the tier map moved with it.
	both := baseline()
	both[3] = func(l *obs.Ledger) {
		l.Iter(obs.LedgerRecord{Q: 5, Phase: 2, Iter: 1, U: 3, Smax: 3, F: 10,
			Tiers: obs.TierCounts{Podem: 1}})
	}
	c := writeLedger(t, "c.jsonl", both...)
	out, _, code := diff(t, a, c)
	if code != 1 {
		t.Fatalf("iteration with a new phase and tier map exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "1 verdict flips, 0 tier migrations") {
		t.Errorf("phase change not counted as a flip:\n%s", out)
	}
}

func TestIterationTierMapIsMigration(t *testing.T) {
	tiers := func(tc obs.TierCounts) []emit {
		ev := baseline()
		ev[3] = func(l *obs.Ledger) {
			l.Iter(obs.LedgerRecord{Q: 5, Phase: 1, Iter: 1, U: 3, Smax: 3, F: 10, Tiers: tc})
		}
		return ev
	}
	a := writeLedger(t, "a.jsonl", tiers(obs.TierCounts{Podem: 17})...)
	b := writeLedger(t, "b.jsonl", tiers(obs.TierCounts{Podem: 15, SAT: 1, SATMemo: 1})...)
	out, _, code := diff(t, a, b)
	if code != 0 {
		t.Fatalf("tier-map-only iteration difference exited %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "iteration 1 migrated tiers") {
		t.Errorf("migration not described:\n%s", out)
	}
	if !strings.Contains(out, "0 verdict flips, 1 tier migrations") {
		t.Errorf("migration not counted:\n%s", out)
	}
}

func TestStageMismatchExitsOne(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	b := writeLedger(t, "b.jsonl", baseline()[:3]...) // second stage gone
	if out, _, code := diff(t, a, b); code != 1 {
		t.Fatalf("missing stage exited %d, want 1\n%s", code, out)
	}
	renamed := baseline()
	renamed[4] = stage("verify", "c432", 80)
	c := writeLedger(t, "c.jsonl", renamed...)
	if out, _, code := diff(t, a, c); code != 1 {
		t.Fatalf("renamed stage exited %d, want 1\n%s", code, out)
	}
}

func TestTamperedFileWarnsButDiffs(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	b := writeLedger(t, "b.jsonl", baseline()...)
	// The obsdiff-smoke recipe: flip a verdict in place with sed. The
	// recorded digest no longer matches, which obsdiff warns about on
	// stderr while still reporting the flip.
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"status":"detected"`, `"status":"undetectable"`, 1)
	if edited == string(data) {
		t.Fatalf("no verdict to flip in:\n%s", data)
	}
	if err := os.WriteFile(b, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := diff(t, a, b)
	if code != 1 {
		t.Fatalf("tampered ledger exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(errb, "does not match its records") {
		t.Errorf("no tamper warning on stderr:\n%s", errb)
	}
}

func TestUsageAndIOErrorsExitThree(t *testing.T) {
	a := writeLedger(t, "a.jsonl", baseline()...)
	if _, _, code := diff(t); code != 3 {
		t.Errorf("no args exited %d, want 3", code)
	}
	if _, _, code := diff(t, a); code != 3 {
		t.Errorf("one arg exited %d, want 3", code)
	}
	if _, _, code := diff(t, a, filepath.Join(t.TempDir(), "absent.jsonl")); code != 3 {
		t.Errorf("missing file exited %d, want 3", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"t\":\"verdict\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := diff(t, a, bad); code != 3 {
		t.Errorf("malformed ledger exited %d, want 3", code)
	}
}

func TestTopLimitsDetailLines(t *testing.T) {
	mk := func(status string) []emit {
		ev := []emit{stage("analyze", "c17", 0)}
		for i := 0; i < 40; i++ {
			ev = append(ev, verdict(i, status, obs.TierPodem, 0))
		}
		return ev
	}
	a := writeLedger(t, "a.jsonl", mk("detected")...)
	b := writeLedger(t, "b.jsonl", mk("aborted")...)
	out, _, code := diff(t, "-top", "3", a, b)
	if code != 1 {
		t.Fatalf("exited %d, want 1", code)
	}
	if got := strings.Count(out, "flipped"); got != 3 {
		t.Errorf("printed %d flip lines, want 3 (then suppression)", got)
	}
	if !strings.Contains(out, "suppressed") {
		t.Errorf("no suppression notice:\n%s", out)
	}
	if !strings.Contains(out, "40 verdict flips") {
		t.Errorf("summary should still count all 40 flips:\n%s", out)
	}
}
