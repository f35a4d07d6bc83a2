// Resilience gates for the pipeline's own execution: a sweep killed after
// any accepted iteration and resumed from its journal must reproduce the
// uninterrupted run byte for byte; injected worker panics and cache
// corruption must never change a reported number or crash the process; and
// cancellation must abort at deterministic boundaries with an honest
// partial result.
package dfmresyn

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/chaos"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/resyn"
)

// sweep runs the full q-sweep on a named circuit and renders the rows the
// CLI prints, so comparisons happen on the exact bytes a user sees. The
// rtime column is fed a constant: wall time is the one column that can
// never be replayed.
func sweepRows(t *testing.T, name string, opt resyn.Options, resumeFrom string) (*resyn.Result, string) {
	t.Helper()
	env := flow.NewEnv()
	c := bench.MustBuild(name, env.Lib)
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
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
	if r == nil {
		t.Fatal("nil result")
	}
	rows := report.TableIIOrigRow(name, r.Orig.Metrics()) + "\n" +
		report.TableIIResynRow(r, 1.0) + "\n" +
		report.Fig2Trace(r)
	return r, rows
}

// TestKillAndResume: for two circuits across the full q-sweep, a run
// stopped (simulated SIGKILL) after iteration k and resumed from its
// journal produces byte-identical Table II and Fig. 2 output to the
// uninterrupted golden run — for every meaningful kill point k.
func TestKillAndResume(t *testing.T) {
	for _, name := range []string{"sparc_spu", "sparc_tlu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			golden, goldenRows := sweepRows(t, name, resyn.Options{}, "")
			commits := len(golden.Trace)
			if commits == 0 {
				t.Fatalf("%s: golden sweep accepted no iterations; kill-and-resume needs at least one", name)
			}
			kills := []int{1}
			if commits > 1 {
				kills = append(kills, (commits+1)/2, commits)
			}
			for _, k := range kills {
				journal := filepath.Join(t.TempDir(), "sweep.ckpt")
				killed, _ := sweepRows(t, name, resyn.Options{Journal: journal, StopAfterCommits: k}, "")
				if !killed.Interrupted {
					t.Fatalf("kill at %d/%d commits: run not marked Interrupted", k, commits)
				}
				if len(killed.Trace) != k {
					t.Fatalf("kill at %d: %d commits survived", k, len(killed.Trace))
				}
				resumed, resumedRows := sweepRows(t, name, resyn.Options{}, journal)
				if !resumed.Resumed || resumed.ReplayedCommits != k {
					t.Errorf("kill at %d: resumed run replayed %d commits (Resumed=%v)",
						k, resumed.ReplayedCommits, resumed.Resumed)
				}
				if resumedRows != goldenRows {
					t.Errorf("kill at %d/%d: resumed output differs from golden\n--- golden:\n%s--- resumed:\n%s",
						k, commits, goldenRows, resumedRows)
				}
			}
		})
	}
}

// TestResumeRejectsMismatchedRun: a journal must only resume the run it
// belongs to — wrong circuit, wrong seed, and wrong options are all hard
// errors, never a silent partial resume.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.ckpt")
	if r, _ := sweepRows(t, "sparc_spu", resyn.Options{Journal: journal, StopAfterCommits: 1}, ""); !r.Interrupted {
		t.Fatal("setup: sweep was not interrupted")
	}

	ck, err := resyn.LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	env := flow.NewEnv()
	wrongC := bench.MustBuild("sparc_tlu", env.Lib)
	wrongOrig, err := env.Analyze(wrongC, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resyn.Resume(env, wrongOrig, ck, resyn.Options{}); err == nil {
		t.Error("journal resumed a different circuit")
	}

	env2 := flow.NewEnv()
	env2.Seed = 99
	env2.ATPG.Seed = 99
	c := bench.MustBuild("sparc_spu", env2.Lib)
	orig2, err := env2.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resyn.Resume(env2, orig2, ck, resyn.Options{}); err == nil {
		t.Error("journal resumed under a different seed")
	}

	env3 := flow.NewEnv()
	c3 := bench.MustBuild("sparc_spu", env3.Lib)
	orig3, err := env3.Analyze(c3, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resyn.Resume(env3, orig3, ck, resyn.Options{MaxQ: 2}); err == nil {
		t.Error("journal resumed under different options")
	}
}

// TestChaosPanicRecovery: with worker panics injected at a 5% seed-driven
// rate, analysis completes with the same fault tables as an undisturbed
// run, a non-empty recovery count, an empty quarantine, and zero process
// crashes — at more than one worker count.
func TestChaosPanicRecovery(t *testing.T) {
	for _, name := range []string{"wb_conmax", "sparc_ifu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			analyze := func(workers int, inject func(int, int) bool) *flow.Design {
				env := flow.NewEnv()
				env.Workers = workers
				env.ATPG.InjectPanic = inject
				c := bench.MustBuild(name, env.Lib)
				d, err := env.Analyze(c, geom.Rect{})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			ref := analyze(1, nil)
			refRow := report.TableIRow(name, ref.Metrics())
			for _, workers := range []int{1, 8} {
				got := analyze(workers, chaos.Panics(1234, 0.05))
				if got.Result.Recovered == 0 {
					t.Errorf("workers=%d: 5%% injection recovered no panics", workers)
				}
				if len(got.Result.Quarantined) != 0 {
					t.Errorf("workers=%d: retried panics still quarantined %d faults", workers, len(got.Result.Quarantined))
				}
				if row := report.TableIRow(name, got.Metrics()); row != refRow {
					t.Errorf("workers=%d: chaos changed the table\n  clean: %s\n  chaos: %s", workers, refRow, row)
				}
			}
		})
	}
}

// TestChaosQuarantine: a fault whose search panics on the pooled worker
// AND the fresh retry is quarantined as Aborted — an honest "the engine
// could not finish" — while every other verdict matches the clean run.
func TestChaosQuarantine(t *testing.T) {
	name := "wb_conmax"
	env := flow.NewEnv()
	c := bench.MustBuild(name, env.Lib)
	clean, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}

	env2 := flow.NewEnv()
	// The static screen proves away most of wb_conmax's searches, which
	// starves a 2% per-search injection of targets; quarantine is about
	// the search path, so give the injector the full search population.
	env2.ATPG.Static = false
	env2.ATPG.InjectPanic = chaos.StubbornPanics(77, 0.02)
	c2 := bench.MustBuild(name, env2.Lib)
	d, err := env2.Analyze(c2, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Result.Quarantined) == 0 {
		t.Fatal("stubborn 2% injection quarantined nothing")
	}
	quar := map[int]bool{}
	for _, id := range d.Result.Quarantined {
		quar[id] = true
	}
	for i, f := range d.Faults.Faults {
		if quar[f.ID] {
			if f.Status != fault.Aborted {
				t.Errorf("quarantined fault %d has status %v, want Aborted", f.ID, f.Status)
			}
			continue
		}
		if cs := clean.Faults.Faults[i].Status; f.Status != cs {
			// A quarantined fault's missing tests can only shrink the
			// detected set of *other* faults if collateral detection is
			// involved; statuses are still sound, but for this gate we
			// require untouched faults to classify identically.
			t.Errorf("untouched fault %d: status %v differs from clean %v", f.ID, f.Status, cs)
		}
	}
}

// TestChaosCacheCorruption: damaging a warm verdict cache yields
// recompute-and-warn — the corrupt counter rises, and the re-analysis
// matches an uncached run verdict for verdict — never a differing table.
func TestChaosCacheCorruption(t *testing.T) {
	name := "sparc_ifu"
	env := flow.NewEnv()
	c := bench.MustBuild(name, env.Lib)
	clean, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}

	env.FaultCache = fcache.New()
	defer func() { env.FaultCache = nil }()
	if _, err := env.Analyze(c, geom.Rect{}); err != nil {
		t.Fatal(err)
	}
	damaged := chaos.CorruptCache(env.FaultCache, 99, 0.5)
	if damaged == 0 {
		t.Fatal("corruption injector damaged nothing")
	}
	redo, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.FaultCache.Stats().Corrupt; got == 0 {
		t.Error("integrity check dropped no entries despite injected corruption")
	}
	for i, f := range redo.Faults.Faults {
		if cs := clean.Faults.Faults[i].Status; f.Status != cs {
			t.Errorf("fault %d: verdict through corrupted cache %v differs from clean %v", f.ID, f.Status, cs)
		}
	}
	if r1, r2 := report.TableIRow(name, clean.Metrics()), report.TableIRow(name, redo.Metrics()); r1 != r2 {
		t.Errorf("corrupted cache changed the table\n  clean: %s\n  redo:  %s", r1, r2)
	}
}

// TestCancelledAnalyze: a cancelled context aborts the analysis with
// ErrInterrupted — at the entry boundary when already cancelled, and
// cooperatively mid-run — and the resolved-fault prefix it reports is
// consistent (every listed fault carries a final status).
func TestCancelledAnalyze(t *testing.T) {
	env := flow.NewEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env.Ctx = ctx
	c := bench.MustBuild("wb_conmax", env.Lib)
	if _, err := env.Analyze(c, geom.Rect{}); !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("pre-cancelled Analyze returned %v, want ErrInterrupted", err)
	}

	// Cooperative mid-run cancellation through the sweep: stop the sweep's
	// own context after the original analysis, then check the sweep
	// reports an interrupted, consistent prefix.
	env2 := flow.NewEnv()
	c2 := bench.MustBuild("sparc_spu", env2.Lib)
	orig, err := env2.Analyze(c2, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	env2.Ctx = ctx2
	r, err := resyn.RunFrom(env2, orig, resyn.Options{})
	if !errors.Is(err, resilience.ErrInterrupted) {
		t.Fatalf("cancelled sweep returned %v, want ErrInterrupted", err)
	}
	if r == nil || !r.Interrupted {
		t.Fatal("cancelled sweep did not mark its partial result Interrupted")
	}
	if r.Final == nil || len(r.Trace) != 0 {
		t.Errorf("immediately-cancelled sweep committed %d iterations; Final nil=%v", len(r.Trace), r.Final == nil)
	}
}
