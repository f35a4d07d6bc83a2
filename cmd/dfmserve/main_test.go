package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The contract under test, end to end across real OS processes: a q-sweep
// submitted to dfmserve and SIGKILLed mid-run is re-admitted on restart and
// completes with a ledger digest byte-identical to an uninterrupted run's;
// and a second cold process sharing the data directory reports nonzero
// warm verdict-store hits.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func cli(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dfmserve-cli")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dfmserve")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
			binPath = ""
		}
	})
	if buildErr != nil || binPath == "" {
		t.Fatalf("building dfmserve: %v", buildErr)
	}
	return binPath
}

// server is one live dfmserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	errb *strings.Builder
}

// startServer launches dfmserve on datadir and waits for its address file.
func startServer(t *testing.T, datadir string, extra ...string) *server {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-datadir", datadir, "-slots", "1",
	}, extra...)
	cmd := exec.Command(cli(t), args...)
	errb := &strings.Builder{}
	cmd.Stderr = errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return &server{cmd: cmd, url: "http://" + strings.TrimSpace(string(data)), errb: errb}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dfmserve never published its address\nstderr:\n%s", errb)
	return nil
}

// sigterm drains the server gracefully and waits for exit 0.
func (s *server) sigterm(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("dfmserve did not drain cleanly: %v\nstderr:\n%s", err, s.errb)
	}
}

// sigkill is the hard kill: no drain, no journal flush beyond what already
// hit the disk.
func (s *server) sigkill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	s.cmd.Wait()
}

type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		LedgerDigest    string `json:"ledgerDigest"`
		Resumed         bool   `json:"resumed"`
		ReplayedCommits int    `json:"replayedCommits"`
		WarmHits        uint64 `json:"warmHits"`
		Prewarmed       int    `json:"prewarmed"`
		Commits         int    `json:"commits"`
		U               int    `json:"u"`
	} `json:"result"`
}

func postJob(t *testing.T, s *server, body string) jobView {
	t.Helper()
	resp, err := http.Post(s.url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs = %d %s", resp.StatusCode, b)
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("POST /jobs response %q: %v", b, err)
	}
	return v
}

// waitDone's deadline is generous: under `make test` this package shares
// the machine with every other test binary (some race-enabled), and the
// sweep's wall time stretches with that contention.
func waitDone(t *testing.T, s *server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v jobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("GET /jobs/%s = %q: %v", id, b, err)
		}
		switch v.State {
		case "done":
			return v
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never completed", id)
	return jobView{}
}

// lastLedgerLine decodes the last line of the ledger the server serves for
// a job.
func lastLedgerLine(t *testing.T, s *server, id string) (rec struct{ T, Digest string }) {
	t.Helper()
	resp, err := http.Get(s.url + "/jobs/" + id + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("GET /jobs/%s/ledger = %d, last line %q: %v", id, resp.StatusCode, lines[len(lines)-1], err)
	}
	return rec
}

// TestServeSmoke is the chaos acceptance run. des_perf's sweep accepts
// several commits over a few seconds, leaving a wide window in which the
// hard kill lands mid-run with a checkpoint already journaled.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	const spec = `{"bench":"des_perf"}`

	// Uninterrupted baseline in its own data directory.
	dirA := t.TempDir()
	a := startServer(t, dirA)
	av := postJob(t, a, spec)
	golden := waitDone(t, a, av.ID)
	if golden.Result.LedgerDigest == "" || golden.Result.Commits == 0 {
		t.Fatalf("baseline run is vacuous: %+v", golden.Result)
	}
	a.sigterm(t)

	// Same spec on a fresh data directory; SIGKILL the server the moment
	// the job's first checkpoint hits the disk (mid-sweep by construction:
	// a completed job deletes its checkpoint).
	dirB := t.TempDir()
	b := startServer(t, dirB)
	bv := postJob(t, b, spec)
	ckpt := filepath.Join(dirB, "jobs", bv.ID+".ckpt")
	deadline := time.Now().Add(4 * time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never wrote a checkpoint\nstderr:\n%s", bv.ID, b.errb)
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.sigkill(t)

	// Restart on the same data directory: recovery re-admits the job; the
	// idempotent resubmission of the same spec lands on it; and it resumes
	// to a digest byte-identical to the uninterrupted run's.
	b2 := startServer(t, dirB)
	rv := postJob(t, b2, spec)
	if rv.ID != bv.ID {
		t.Fatalf("resubmitted spec mapped to job %s, want %s", rv.ID, bv.ID)
	}
	fin := waitDone(t, b2, bv.ID)
	if !fin.Result.Resumed || fin.Result.ReplayedCommits == 0 {
		t.Errorf("restarted job did not resume from its checkpoint: %+v", fin.Result)
	}
	if fin.Result.LedgerDigest != golden.Result.LedgerDigest {
		t.Errorf("resumed digest %s != uninterrupted %s",
			fin.Result.LedgerDigest, golden.Result.LedgerDigest)
	}
	if fin.Result.U != golden.Result.U {
		t.Errorf("resumed U=%d != uninterrupted U=%d", fin.Result.U, golden.Result.U)
	}
	// The killed and the resumed process wrote one ledger file, and the
	// summary that ends it carries the job's digest.
	if ledgers, _ := filepath.Glob(filepath.Join(dirB, "jobs", bv.ID+"*.jsonl")); len(ledgers) != 1 {
		t.Errorf("job ledger files %v, want one", ledgers)
	}
	if last := lastLedgerLine(t, b2, bv.ID); last.T != "summary" || last.Digest != fin.Result.LedgerDigest {
		t.Errorf("served ledger ends in %+v, want a summary with digest %s", last, fin.Result.LedgerDigest)
	}
	b2.sigterm(t)

	// A second cold process on the shared data directory: its first job
	// prewarm from the verdict store and reports warm hits.
	b3 := startServer(t, dirB)
	wv := postJob(t, b3, `{"bench":"des_perf","name":"warm"}`)
	warm := waitDone(t, b3, wv.ID)
	if warm.Result.Prewarmed == 0 || warm.Result.WarmHits == 0 {
		t.Errorf("cold process saw no store warmth: prewarmed=%d warmHits=%d",
			warm.Result.Prewarmed, warm.Result.WarmHits)
	}
	if warm.Result.U != golden.Result.U {
		t.Errorf("warm-started job changed results: U=%d want %d", warm.Result.U, golden.Result.U)
	}
	b3.sigterm(t)
}

// TestServeCLIErrors pins the startup failure modes.
func TestServeCLIErrors(t *testing.T) {
	out, err := exec.Command(cli(t)).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-datadir") {
		t.Errorf("missing -datadir: err=%v out=%s", err, out)
	}
	dir := t.TempDir()
	s := startServer(t, dir)
	defer s.sigterm(t)
	// A second server on the same data directory must fail fast on the
	// store lock, not corrupt shared state.
	out, err = exec.Command(cli(t), "-addr", "127.0.0.1:0", "-datadir", dir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "lock") {
		t.Errorf("second server on one datadir: err=%v out=%s", err, out)
	}
}
