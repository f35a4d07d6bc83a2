package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfmresyn/internal/obs"
	"dfmresyn/internal/resyn"
)

// testSpec is the suite's workhorse: sparc_spu is the fastest benchmark
// with a non-trivial sweep (it accepts at least one resynthesis commit, so
// checkpoints and resume have something to do).
func testSpec(name string) JobSpec {
	return JobSpec{Name: name, Bench: "sparc_spu"}
}

func newServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.DataDir == "" {
		opt.DataDir = t.TempDir()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// waitState polls until the job reaches a terminal-enough state.
func waitState(t *testing.T, j *Job, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		v := j.Snapshot()
		if v.State == want {
			return v
		}
		if v.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", v.ID, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.ID, want, j.State())
	return JobView{}
}

func submit(t *testing.T, s *Server, sp JobSpec) *Job {
	t.Helper()
	j, _, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSpecValidateAndID(t *testing.T) {
	if err := (JobSpec{}).Validate(); err == nil {
		t.Error("empty spec validated")
	}
	if err := (JobSpec{Bench: "x", Circuit: "y"}).Validate(); err == nil {
		t.Error("two-source spec validated")
	}
	if err := (JobSpec{Bench: "x", MaxQ: 101}).Validate(); err == nil {
		t.Error("maxQ 101 validated")
	}
	a, b := testSpec("a").ID(), testSpec("b").ID()
	if a == b {
		t.Error("distinct specs share an ID")
	}
	if a != testSpec("a").ID() {
		t.Error("spec ID is not deterministic")
	}
}

// TestLifecycleDigestIdentity is the acceptance contract: a job interrupted
// mid-sweep (StopAfterCommits — the deterministic stand-in for SIGKILL) and
// resumed — by resubmission onto the same server, or by a fresh server
// instance recovering the journals — completes with a ledger digest
// byte-identical to an uninterrupted run's, in one ledger file cut back to
// the checkpoint's last commit.
func TestLifecycleDigestIdentity(t *testing.T) {
	// Uninterrupted baseline in its own data directory (empty store, so
	// its run is bit-for-bit the storeless run).
	base := newServer(t, Options{Slots: 1})
	bv := waitState(t, submit(t, base, testSpec("golden")), StateDone)
	if bv.Result == nil || bv.Result.LedgerDigest == "" {
		t.Fatal("baseline job has no ledger digest")
	}
	if bv.Result.Commits == 0 {
		t.Fatal("sparc_spu accepted no commits; the resume paths below would be vacuous")
	}
	golden := bv.Result.LedgerDigest

	// Same spec, interrupted after its first commit, resumed by
	// resubmission onto the same server.
	killed := testSpec("golden")
	killed.StopAfterCommits = 1
	s2 := newServer(t, Options{Slots: 1})
	j := submit(t, s2, killed)
	waitState(t, j, StateInterrupted)
	if _, err := os.Stat(s2.ckptPath(j.ID)); err != nil {
		t.Fatalf("interrupted job left no checkpoint: %v", err)
	}
	// Records past the checkpoint's last commit, ending in a line torn by
	// the kill: the resume must cut them off.
	const tail = `{"t":"stage","stage":"analyze-incr","circuit":"past-the-commit"}` + "\n" + `{"t":"verdict","fau`
	f, err := os.OpenFile(s2.ledgerPath(j.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j2, admitted, err := s2.Submit(killed)
	if err != nil || !admitted || j2 != j {
		t.Fatalf("resubmission: job=%p/%p admitted=%v err=%v", j2, j, admitted, err)
	}
	rv := waitState(t, j, StateDone)
	if !rv.Result.Resumed || rv.Result.ReplayedCommits == 0 {
		t.Errorf("resumed run did not report resume: %+v", rv.Result)
	}
	if rv.Result.LedgerDigest != golden {
		t.Errorf("resumed digest %s != uninterrupted %s", rv.Result.LedgerDigest, golden)
	}
	// The served ledger is the job's one file; that every line of it
	// decodes shows the torn line is gone.
	checkServedLedger(t, s2, rv)
	if ledgers, _ := filepath.Glob(filepath.Join(s2.jobsDir, j.ID+"*.jsonl")); len(ledgers) != 1 || ledgers[0] != s2.ledgerPath(j.ID) {
		t.Errorf("job ledger files %v, want only %s", ledgers, s2.ledgerPath(j.ID))
	}
	if data, err := os.ReadFile(s2.ledgerPath(j.ID)); err != nil || strings.Contains(string(data), "past-the-commit") {
		t.Errorf("the resumed ledger kept the appended stage record (read error %v)", err)
	}
	if _, err := os.Stat(s2.ckptPath(j.ID)); !os.IsNotExist(err) {
		t.Error("completed job left its checkpoint behind")
	}

	// Same again, but the resume happens in a brand-new server instance
	// recovering the journals — the restart-after-crash path.
	dir := t.TempDir()
	s3 := newServer(t, Options{DataDir: dir, Slots: 1})
	j3 := submit(t, s3, killed)
	waitState(t, j3, StateInterrupted)
	if err := s3.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s4 := newServer(t, Options{DataDir: dir, Slots: 1})
	j4, ok := s4.Job(j3.ID)
	if !ok {
		t.Fatal("restarted server forgot the interrupted job")
	}
	rv4 := waitState(t, j4, StateDone)
	if !rv4.Result.Resumed {
		t.Error("recovered job did not resume from its checkpoint")
	}
	if rv4.Result.LedgerDigest != golden {
		t.Errorf("recovered digest %s != uninterrupted %s", rv4.Result.LedgerDigest, golden)
	}
	checkServedLedger(t, s4, rv4)
}

// checkServedLedger decodes the ledger GET /jobs/{id}/ledger serves for a
// finished job and asserts the stream verifies itself: the digest
// recomputed from its records equals its last summary's and the job's
// reported digest.
func checkServedLedger(t *testing.T, s *Server, v JobView) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/"+v.ID+"/ledger", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET ledger = %d", w.Code)
	}
	recs, err := obs.ReadLedger(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.T != "summary" {
		t.Fatalf("served ledger ends in a %q record, not a summary", last.T)
	}
	d, err := obs.LedgerDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if d != last.Digest || d != v.Result.LedgerDigest {
		t.Errorf("served ledger digest %s, last summary %s, job %s", d, last.Digest, v.Result.LedgerDigest)
	}
	if last.Events != v.Result.LedgerEvents {
		t.Errorf("last summary counts %d events, job %d", last.Events, v.Result.LedgerEvents)
	}
}

// TestWarmHitsAcrossRestart is the shared-store contract: a second server
// instance on the same data directory starts cold (fresh process, fresh
// caches) yet its first job reports nonzero warm verdict-cache hits — and a
// torn store tail from the first life is healed, not fatal.
func TestWarmHitsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newServer(t, Options{DataDir: dir, Slots: 1})
	v1 := waitState(t, submit(t, s1, testSpec("first")), StateDone)
	if v1.Result.WarmHits != 0 {
		t.Errorf("first job on an empty store reported %d warm hits", v1.Result.WarmHits)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Tear the store's tail as a crash mid-append would.
	segs, _ := filepath.Glob(filepath.Join(dir, "store", "seg-*.vseg"))
	if len(segs) == 0 {
		t.Fatal("completed job published nothing to the store")
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, Options{DataDir: dir, Slots: 1})
	if st := s2.Store().Stats(); st.HealedRecords == 0 {
		t.Errorf("torn store tail was not healed: %+v", st)
	}
	v2 := waitState(t, submit(t, s2, testSpec("second")), StateDone)
	if v2.Result.Prewarmed == 0 {
		t.Error("second life prewarmed nothing from the shared store")
	}
	if v2.Result.WarmHits == 0 {
		t.Error("second life's job reported zero warm hits")
	}
	if v2.Result.U != v1.Result.U || v2.Result.Cov != v1.Result.Cov {
		t.Errorf("warm-started job changed results: U %d/%d Cov %v/%v",
			v2.Result.U, v1.Result.U, v2.Result.Cov, v1.Result.Cov)
	}
}

// TestQueueBoundsAndDrain pins admission control: a held worker slot plus a
// full queue yields ErrQueueFull; draining yields ErrDraining.
func TestQueueBoundsAndDrain(t *testing.T) {
	block := make(chan struct{})
	var once bool
	s := newServer(t, Options{
		Slots:    1,
		QueueCap: 1,
		InjectJobPanic: func(string, int) bool {
			if !once {
				once = true
				<-block // hold the only slot; never panic
			}
			return false
		},
	})
	j1 := submit(t, s, testSpec("q1"))
	waitState(t, j1, StateRunning) // slot held inside the hook
	j2 := submit(t, s, testSpec("q2"))
	if _, _, err := s.Submit(testSpec("q3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission = %v, want ErrQueueFull", err)
	}
	// Idempotent resubmission of known jobs is not an admission.
	if dup, admitted, err := s.Submit(testSpec("q2")); err != nil || admitted || dup != j2 {
		t.Fatalf("duplicate submission = %p/%p admitted=%v err=%v", dup, j2, admitted, err)
	}
	close(block)
	waitState(t, j1, StateDone)
	waitState(t, j2, StateDone)

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(testSpec("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission = %v, want ErrDraining", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal("second Drain not idempotent:", err)
	}
}

// TestJobPanicQuarantine pins the job-level panic guard: one panic retries
// from scratch and succeeds; a stubborn panicker is quarantined as failed
// without taking the server down.
func TestJobPanicQuarantine(t *testing.T) {
	stubborn := testSpec("stubborn")
	flaky := testSpec("flaky")
	s := newServer(t, Options{
		Slots: 1,
		InjectJobPanic: func(id string, attempt int) bool {
			switch id {
			case stubborn.ID():
				return true
			case flaky.ID():
				return attempt == 0
			}
			return false
		},
	})
	js := submit(t, s, stubborn)
	v := waitState(t, js, StateFailed)
	if !strings.Contains(v.Error, "panicked") {
		t.Errorf("quarantined job error = %q", v.Error)
	}
	if got := s.Tracer().Counter("serve/jobs_quarantined").Get(); got != 1 {
		t.Errorf("jobs_quarantined = %d, want 1", got)
	}
	jf := submit(t, s, flaky)
	waitState(t, jf, StateDone)
	if got := s.Tracer().Counter("serve/job_panics_retried").Get(); got == 0 {
		t.Error("flaky job's retry was not counted")
	}
	// The failed tenant stayed failed and did not poison the healthy one.
	if js.State() != StateFailed {
		t.Error("quarantined job resurrected")
	}
}

// TestCorruptJobJournalQuarantined: a torn job journal on disk is set aside
// at startup, never trusted, never fatal.
func TestCorruptJobJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(jobs, "deadbeefdeadbeef.job")
	if err := os.WriteFile(bad, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Options{DataDir: dir, Slots: 1})
	if got := s.Tracer().Counter("serve/journals_quarantined").Get(); got != 1 {
		t.Errorf("journals_quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(bad + ".quarantine"); err != nil {
		t.Errorf("torn journal not preserved: %v", err)
	}
	if len(s.Jobs()) != 0 {
		t.Error("torn journal produced a job")
	}
}

// TestHTTPAPI drives the full wire surface end to end against a live job.
func TestHTTPAPI(t *testing.T) {
	s := newServer(t, Options{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	if resp, _ := post(`{"bench":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"bench":"sparc_spu","bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", resp.StatusCode)
	}
	resp, body := post(`{"bench":"sparc_spu","name":"http"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission = %d %s, want 202", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal([]byte(body), &view); err != nil || view.ID == "" {
		t.Fatalf("submission response %q: %v", body, err)
	}
	// Idempotent re-POST of a known job answers 200.
	if resp, _ := post(`{"bench":"sparc_spu","name":"http"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("duplicate submission = %d, want 200", resp.StatusCode)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	deadline := time.Now().Add(3 * time.Minute)
	for {
		code, body := get("/jobs/" + view.ID)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatal(err)
		}
		if view.State == StateDone {
			break
		}
		if view.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete over HTTP: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Result == nil || view.Result.LedgerDigest == "" {
		t.Fatalf("done job carries no result: %+v", view)
	}

	if code, body := get("/jobs"); code != http.StatusOK || !strings.Contains(body, view.ID) {
		t.Errorf("GET /jobs = %d, missing job %s", code, view.ID)
	}
	if code, _ := get("/jobs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	code, ledger := get("/jobs/" + view.ID + "/ledger")
	if code != http.StatusOK || !strings.Contains(ledger, `"t":"stage"`) {
		t.Errorf("GET ledger = %d, body lacks stage records", code)
	}
	if code, body := get("/store"); code != http.StatusOK || !strings.Contains(body, "entries") {
		t.Errorf("GET /store = %d %s", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Errorf("GET /metrics = %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("GET /readyz = %d %q", code, body)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("GET /readyz after drain = %d %q", code, body)
	}
	if resp, _ := post(`{"bench":"sparc_spu","name":"late"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submission = %d, want 503", resp.StatusCode)
	}
}

// TestWarmStoreResumeDigestIdentity: resume identity on a warm store. The
// store first holds a completed job's verdicts (sparc_spu, seed 2, MaxQ 3);
// a seed-1 job then prewarms from it, is stopped after one commit and is
// resumed by a restarted server. Its digest must equal the same spec run
// uninterrupted on the same store content — the verdict log must carry the
// prewarmed verdicts across the kill.
func TestWarmStoreResumeDigestIdentity(t *testing.T) {
	warm := JobSpec{Name: "warm", Bench: "sparc_spu", Seed: 2, MaxQ: 3}
	spec := testSpec("probe")

	base := newServer(t, Options{Slots: 1})
	waitState(t, submit(t, base, warm), StateDone)
	bv := waitState(t, submit(t, base, spec), StateDone)
	if bv.Result.Prewarmed == 0 {
		t.Fatal("the probe prewarmed nothing; the store was not warm")
	}

	dir := t.TempDir()
	s1 := newServer(t, Options{DataDir: dir, Slots: 1})
	waitState(t, submit(t, s1, warm), StateDone)
	killed := spec
	killed.StopAfterCommits = 1
	j := submit(t, s1, killed)
	waitState(t, j, StateInterrupted)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := newServer(t, Options{DataDir: dir, Slots: 1})
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatal("restarted server forgot the interrupted job")
	}
	rv := waitState(t, j2, StateDone)
	if !rv.Result.Resumed {
		t.Fatal("recovered job did not resume from its checkpoint")
	}
	if rv.Result.LedgerDigest != bv.Result.LedgerDigest {
		t.Errorf("resumed digest %s != uninterrupted %s on the same warm store (%d prewarmed)",
			rv.Result.LedgerDigest, bv.Result.LedgerDigest, bv.Result.Prewarmed)
	}
	checkServedLedger(t, s2, rv)
	t.Logf("digest %s prewarmed %d", rv.Result.LedgerDigest, bv.Result.Prewarmed)
}

// TestVerdictLogDamage: a job stopped after one commit, whose verdict log
// is then altered, finishes after one resubmission with the uninterrupted
// digest. Bytes past the journaled prefix, as a crash between the log
// append and the journal rename leaves them, are cut off and the job
// resumes. A log shorter than the prefix, or with a flipped byte inside it,
// fails the checkpoint's load, and the job falls back to one fresh run,
// which goes to completion: a re-run drops the spec's StopAfterCommits.
func TestVerdictLogDamage(t *testing.T) {
	base := newServer(t, Options{Slots: 1})
	golden := waitState(t, submit(t, base, testSpec("golden")), StateDone).Result.LedgerDigest
	killed := testSpec("golden")
	killed.StopAfterCommits = 1

	for _, tc := range []struct {
		name     string
		damage   func([]byte) []byte
		fallback bool
	}{
		{"tail past prefix", func(b []byte) []byte { return append(b, 0xd5, 0x1e, 0x02, 0xff) }, false},
		{"short", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x08; return b }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, Options{Slots: 1})
			j := submit(t, s, killed)
			waitState(t, j, StateInterrupted)
			ck, err := resyn.LoadCheckpoint(s.ckptPath(j.ID))
			if err != nil {
				t.Fatal(err)
			}
			log := filepath.Join(s.jobsDir, ck.VerdictLog)
			data, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(log, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, admitted, err := s.Submit(killed); err != nil || !admitted {
				t.Fatalf("resubmission: admitted=%v err=%v", admitted, err)
			}
			v := waitState(t, j, StateDone)
			if v.Result.Resumed == tc.fallback {
				t.Errorf("Resumed = %v, want %v", v.Result.Resumed, !tc.fallback)
			}
			fallbacks := int64(0)
			if tc.fallback {
				fallbacks = 1
			}
			if got := s.Tracer().Counter("serve/resume_fallbacks").Get(); got != fallbacks {
				t.Errorf("serve/resume_fallbacks = %d, want %d", got, fallbacks)
			}
			if v.Result.LedgerDigest != golden {
				t.Errorf("digest %s != uninterrupted %s", v.Result.LedgerDigest, golden)
			}
			checkServedLedger(t, s, v)
		})
	}
}
