package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/library"
	"dfmresyn/internal/verilog"
)

// The CLI contract under test: the documented exit codes, the signal/kill
// resilience flags, and the guarantee that a -resume run prints the same
// deterministic rows as the uninterrupted run.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// cli builds the dfmresyn binary once per test run and returns its path.
func cli(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dfmresyn-cli")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dfmresyn")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
			binPath = ""
		}
	})
	if buildErr != nil || binPath == "" {
		t.Fatalf("building CLI: %v", buildErr)
	}
	return binPath
}

// runCLI executes the binary and returns (stdout, stderr, exit code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(cli(t), args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestExitCodes: the documented exit codes are distinct and deterministic —
// 0 success, 1 usage, 3 constraint violation, 4 interrupted. (2, lint
// findings under -lint strict, is documented but needs a circuit with
// findings; the pipeline's clean benchmarks have none, which is itself
// asserted by the lint tests.)
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no work requested", nil, 1},
		{"missing circuit", []string{"-table2"}, 1},
		{"resume needs one circuit", []string{"-table2", "-all", "-resume", "x.ckpt"}, 1},
		{"bad die spec", []string{"-table2", "-circuit", "sparc_spu", "-die", "huge"}, 1},
		{"bad lint mode", []string{"-table2", "-circuit", "sparc_spu", "-lint", "pedantic"}, 1},
		{"missing journal on resume", []string{"-table2", "-circuit", "sparc_spu", "-resume", filepath.Join(t.TempDir(), "absent.ckpt")}, 1},
		{"success", []string{"-trace", "-circuit", "sparc_spu"}, 0},
		{"constraint violation", []string{"-table2", "-circuit", "sparc_spu", "-die", "4x4"}, 3},
		{"list", []string{"-list"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.args...)
			if code != tc.want {
				t.Fatalf("%v exited %d, want %d\nstderr:\n%s", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// deterministicRows strips the configuration-sensitive output from a
// -table2 -trace run: it drops the perf diagnostics (cache activity
// legitimately differs between a golden run and a replayed one), drops the
// prov rows (tier attribution shifts when a tier is reconfigured; the
// dedicated ledger tests pin prov invariance across workers/resume/chaos),
// and blanks the Rtime column of the resyn row.
func deterministicRows(t *testing.T, stdout string) string {
	t.Helper()
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && (f[1] == "perf" || f[1] == "prov") {
			continue
		}
		if len(f) > 2 && (strings.HasSuffix(f[0], "%") || f[0] == "none") {
			// The resyn row (its circuit column is blank): "<q>% ...
			// <rtime>" — drop the trailing rtime ratio, keep every
			// engineered column.
			line = strings.Join(f[:len(f)-1], " ")
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestInterruptAndResume: a sweep stopped by -stopafter exits 4 with a
// usable journal; -resume from that journal exits 0 and prints the same
// deterministic rows (Table II minus wall time, and the full Fig. 2 trace)
// as the uninterrupted run.
func TestInterruptAndResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.ckpt")
	base := []string{"-table2", "-trace", "-circuit", "sparc_spu"}

	goldenOut, _, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("golden run exited %d", code)
	}

	_, stderr, code := runCLI(t, append(base, "-journal", journal, "-stopafter", "1")...)
	if code != 4 {
		t.Fatalf("interrupted run exited %d, want 4\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-resume") {
		t.Errorf("interrupted run's stderr does not mention -resume:\n%s", stderr)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("no checkpoint journal after interrupted run: %v", err)
	}

	resumedOut, stderr, code := runCLI(t, append(base, "-resume", journal)...)
	if code != 0 {
		t.Fatalf("resumed run exited %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "replayed=1") {
		t.Errorf("resumed run's resilience row does not report the replayed commit:\n%s", stderr)
	}
	if got, want := deterministicRows(t, resumedOut), deterministicRows(t, goldenOut); got != want {
		t.Errorf("resumed output differs from golden\n--- golden:\n%s\n--- resumed:\n%s", want, got)
	}
}

// TestDeadlineInterrupts: a -deadline far below the classification stage's
// cost expires inside it; the run aborts at a deterministic boundary and
// exits 4.
func TestDeadlineInterrupts(t *testing.T) {
	_, stderr, code := runCLI(t, "-trace", "-circuit", "sparc_spu", "-deadline", "1ns")
	if code != 4 {
		t.Fatalf("deadline run exited %d, want 4\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "interrupted") {
		t.Errorf("deadline expiry not reported as an interruption:\n%s", stderr)
	}
}

// TestSigintGraceful: SIGINT mid-run cancels the pipeline's context; the
// process reports the interruption and exits 4 instead of dying on the
// default signal disposition.
func TestSigintGraceful(t *testing.T) {
	cmd := exec.Command(cli(t), "-table2", "-circuit", "aes_core")
	var errb strings.Builder
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// aes_core's original analysis alone runs for seconds; 500ms lands the
	// signal well inside the pipeline.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("interrupted run: %v (stderr:\n%s)", err, errb.String())
		}
		if ee.ExitCode() != 4 {
			t.Fatalf("SIGINT exited %d, want 4\nstderr:\n%s", ee.ExitCode(), errb.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("process did not exit within 30s of SIGINT")
	}
}

// TestChaosFlagKeepsStdout: -chaospanic injects recoverable worker panics;
// stdout must stay byte-identical to the clean run (modulo wall time) while
// stderr's resilience row reports the recoveries. The clean run's perf row
// reports the static screen's yield, since the screen is always on.
func TestChaosFlagKeepsStdout(t *testing.T) {
	base := []string{"-table2", "-trace", "-circuit", "sparc_spu"}
	cleanOut, _, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	if !strings.Contains(cleanOut, "proved/0-search") {
		t.Errorf("default run should report the static screen's yield; stdout:\n%s", cleanOut)
	}
	chaosOut, stderr, code := runCLI(t, append(base, "-chaospanic", "0.05")...)
	if code != 0 {
		t.Fatalf("chaos run exited %d\nstderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "recovered=0 ") {
		t.Errorf("5%% injection recovered nothing:\n%s", stderr)
	}
	if got, want := deterministicRows(t, chaosOut), deterministicRows(t, cleanOut); got != want {
		t.Errorf("chaos changed stdout\n--- clean:\n%s\n--- chaos:\n%s", want, got)
	}
}

// TestFromVerilogFlag: a netlist written by the flow's own Verilog writer
// analyzes through -fromverilog (reproducibly: two runs print identical
// deterministic rows), a missing file is an I/O error (exit 1), and the
// flag rejects being combined with -circuit/-all/-table1. The ingested
// circuit is the builtin one with gates renumbered into Levelize order, so
// its layout — and with it the fault universe — legitimately differs from
// the builtin run's; equality is asserted structurally by the verilog
// package's round-trip test, not here.
func TestFromVerilogFlag(t *testing.T) {
	c := bench.MustBuild("sparc_spu", library.OSU018Like())
	path := filepath.Join(t.TempDir(), "spu.v")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := verilog.WriteModule(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base := []string{"-table2", "-trace"}
	vlogOut, stderr, code := runCLI(t, append(base, "-fromverilog", path)...)
	if code != 0 {
		t.Fatalf("-fromverilog run exited %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(vlogOut, "sparc_spu") {
		t.Errorf("-fromverilog output does not carry the module name:\n%s", vlogOut)
	}
	againOut, _, code := runCLI(t, append(base, "-fromverilog", path)...)
	if code != 0 {
		t.Fatalf("second -fromverilog run exited %d", code)
	}
	if got, want := deterministicRows(t, againOut), deterministicRows(t, vlogOut); got != want {
		t.Errorf("-fromverilog runs are not reproducible:\n--- first ---\n%s\n--- second ---\n%s", want, got)
	}

	if _, _, code := runCLI(t, "-table2", "-fromverilog", filepath.Join(t.TempDir(), "absent.v")); code != 1 {
		t.Errorf("missing -fromverilog file exited %d, want 1", code)
	}
	if _, _, code := runCLI(t, "-table2", "-fromverilog", path, "-circuit", "tv80"); code != 1 {
		t.Errorf("-fromverilog with -circuit exited %d, want 1", code)
	}
}
