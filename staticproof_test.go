// Differential harness for the static implication screen: with the
// screen on, every number the pipeline reports must stay byte-identical
// to a screen-off run — the screen may only remove searches whose outcome
// (ProvenImpossible) it already knows, never change a verdict, a test
// vector, or a table column. This is the soundness gate behind making the
// screen the flow default.
package dfmresyn

import (
	"reflect"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resyn"
)

func analyzeScreen(t *testing.T, name string, static bool) *flow.Design {
	t.Helper()
	env := flow.NewEnv()
	env.ATPG.Static = static
	c := bench.MustBuild(name, env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatalf("%s (static %v): %v", name, static, err)
	}
	return d
}

// TestStaticProofDifferential: screen-on vs screen-off over the
// benchmark suite — identical statuses, identical test sets, identical
// Table I / Table II rows, and a nonzero total static yield.
func TestStaticProofDifferential(t *testing.T) {
	names := bench.Names
	if testing.Short() {
		// The fast subset still spans high yield (sparc_fpu 99% backtrack
		// cut), near-zero yield (sparc_tlu) and branch-fault-heavy
		// circuits (sparc_ifu).
		names = []string{"sparc_spu", "sparc_tlu", "sparc_ifu", "sparc_fpu"}
	}
	totalProven := 0
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			off := analyzeScreen(t, name, false)
			scr := analyzeScreen(t, name, true)
			if off.Result.StaticProven != 0 {
				t.Fatalf("screen-off run reports StaticProven=%d", off.Result.StaticProven)
			}
			totalProven += scr.Result.StaticProven
			if !reflect.DeepEqual(statuses(scr), statuses(off)) {
				t.Error("fault statuses differ between screen off and on")
			}
			if !reflect.DeepEqual(scr.Result.Tests, off.Result.Tests) {
				t.Errorf("test vectors differ (%d off vs %d screen)",
					len(off.Result.Tests), len(scr.Result.Tests))
			}
			if r0, r1 := report.TableIRow(name, off.Metrics()), report.TableIRow(name, scr.Metrics()); r0 != r1 {
				t.Errorf("Table I rows differ:\n  off:    %s\n  screen: %s", r0, r1)
			}
			if r0, r1 := report.TableIIOrigRow(name, off.Metrics()), report.TableIIOrigRow(name, scr.Metrics()); r0 != r1 {
				t.Errorf("Table II rows differ:\n  off:    %s\n  screen: %s", r0, r1)
			}
		})
	}
	if totalProven == 0 {
		t.Error("the screen proved zero faults across the whole suite; the pre-ATPG phase is not running")
	}
}

// TestStaticProofResynSweep: the full resynthesis q-sweep (default
// MaxQ) with the screen on renders the same Table II resyn row and
// Fig. 2 trace as with it off, on two circuits with different yields.
func TestStaticProofResynSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("resynthesis sweep is slow under -short")
	}
	for _, name := range []string{"sparc_spu", "sparc_tlu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(static bool) (string, string, int) {
				env := flow.NewEnv()
				env.ATPG.Static = static
				c := bench.MustBuild(name, env.Lib)
				orig, err := env.Analyze(c, geom.Rect{})
				if err != nil {
					t.Fatal(err)
				}
				r, err := resyn.RunFrom(env, orig, resyn.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return report.TableIIResynRow(r, 1.0), report.Fig2Trace(r),
					orig.Result.StaticProven + r.StaticProven
			}
			rowOff, traceOff, _ := run(false)
			rowScr, traceScr, proven := run(true)
			if rowOff != rowScr {
				t.Errorf("resyn Table II rows differ:\n  off:    %s\n  screen: %s", rowOff, rowScr)
			}
			if traceOff != traceScr {
				t.Errorf("Fig. 2 traces differ:\n--- off ---\n%s--- screen ---\n%s", traceOff, traceScr)
			}
			if name == "sparc_spu" && proven == 0 {
				t.Error("sweep with screen on proved zero faults on sparc_spu")
			}
		})
	}
}
