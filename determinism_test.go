// Determinism and cache-soundness gates for the parallel ATPG engine: the
// worker count must never change a single reported number, and verdicts
// reused from the fcache must agree with fresh PODEM runs.
package dfmresyn

import (
	"reflect"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/synth"
)

func statuses(d *flow.Design) []fault.Status {
	st := make([]fault.Status, d.Faults.Len())
	for i, f := range d.Faults.Faults {
		st[i] = f.Status
	}
	return st
}

// TestParallelDeterminism: analyzing a benchmark circuit with Workers=1 and
// Workers=8 must yield byte-identical fault statuses, test vectors, and
// Table I / Table II rows.
func TestParallelDeterminism(t *testing.T) {
	for _, name := range []string{"sparc_spu", "sparc_tlu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			analyze := func(workers int) *flow.Design {
				env := flow.NewEnv()
				env.Workers = workers
				c := bench.MustBuild(name, env.Lib)
				d, err := env.Analyze(c, geom.Rect{})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			ref := analyze(1)
			got := analyze(8)
			if !reflect.DeepEqual(statuses(got), statuses(ref)) {
				t.Error("fault statuses differ between Workers=1 and Workers=8")
			}
			if !reflect.DeepEqual(got.Result.Tests, ref.Result.Tests) {
				t.Errorf("test vectors differ between Workers=1 and Workers=8 (%d vs %d tests)",
					len(ref.Result.Tests), len(got.Result.Tests))
			}
			if r1, r8 := report.TableIRow(name, ref.Metrics()), report.TableIRow(name, got.Metrics()); r1 != r8 {
				t.Errorf("Table I rows differ:\n  Workers=1: %s\n  Workers=8: %s", r1, r8)
			}
			if r1, r8 := report.TableIIOrigRow(name, ref.Metrics()), report.TableIIOrigRow(name, got.Metrics()); r1 != r8 {
				t.Errorf("Table II rows differ:\n  Workers=1: %s\n  Workers=8: %s", r1, r8)
			}
		})
	}
}

// TestSATEscalationDeterminism: with the CDCL escalation tier engaged (the
// default backtrack budget sends real escalations to it on sparc_exu), any
// worker count must still render byte-identical Table II rows, identical
// test vectors, identical statuses — and the escalation tier itself must
// report identical work. The Abt column must read zero: escalation leaves
// no aborted faults.
func TestSATEscalationDeterminism(t *testing.T) {
	analyze := func(workers int) *flow.Design {
		env := flow.NewEnv()
		env.Workers = workers
		c := bench.MustBuild("sparc_exu", env.Lib)
		d, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := analyze(1)
	if ref.Result.SATEscalations == 0 {
		t.Fatal("no SAT escalations at the default budget — determinism check is vacuous")
	}
	if ref.Result.Aborted != 0 || ref.Metrics().Aborted != 0 {
		t.Errorf("escalation left %d aborted faults; the Abt column must read 0", ref.Result.Aborted)
	}
	got := analyze(8)
	if !reflect.DeepEqual(statuses(got), statuses(ref)) {
		t.Error("fault statuses differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(got.Result.Tests, ref.Result.Tests) {
		t.Errorf("test vectors differ between Workers=1 and Workers=8 (%d vs %d tests)",
			len(ref.Result.Tests), len(got.Result.Tests))
	}
	if got.Result.SATEscalations != ref.Result.SATEscalations ||
		got.Result.SATConflicts != ref.Result.SATConflicts ||
		got.Result.SATMemoHits != ref.Result.SATMemoHits {
		t.Errorf("SAT tier work differs across workers: %d/%d/%d vs %d/%d/%d",
			got.Result.SATEscalations, got.Result.SATConflicts, got.Result.SATMemoHits,
			ref.Result.SATEscalations, ref.Result.SATConflicts, ref.Result.SATMemoHits)
	}
	if r1, r8 := report.TableIIOrigRow("sparc_exu", ref.Metrics()), report.TableIIOrigRow("sparc_exu", got.Metrics()); r1 != r8 {
		t.Errorf("Table II rows differ:\n  Workers=1: %s\n  Workers=8: %s", r1, r8)
	}
}

// TestResynDeterminism: the full resynthesis sweep — including its shared
// verdict cache — is worker-count invariant down to the rendered Table II
// row and the iteration trace.
func TestResynDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("resynthesis sweep is slow under -short")
	}
	run := func(workers int) (string, string) {
		env := flow.NewEnv()
		env.Workers = workers
		c := bench.MustBuild("sparc_spu", env.Lib)
		orig, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := resyn.RunFrom(env, orig, resyn.Options{MaxQ: 1, MaxItersPhase: 2})
		if err != nil {
			t.Fatal(err)
		}
		return report.TableIIResynRow(r, 1.0), report.Fig2Trace(r)
	}
	row1, trace1 := run(1)
	row8, trace8 := run(8)
	if row1 != row8 {
		t.Errorf("resyn Table II rows differ:\n  Workers=1: %s\n  Workers=8: %s", row1, row8)
	}
	if trace1 != trace8 {
		t.Errorf("iteration traces differ:\n  Workers=1:\n%s  Workers=8:\n%s", trace1, trace8)
	}
}

// TestFlowCacheSoundnessAfterRebuild warms a verdict cache on the original
// analysis, resynthesizes a region, and checks that the cached incremental
// re-analysis agrees with an uncached one: the proven-undetectable set must
// match exactly (a cached verdict may only upgrade Aborted to Detected via
// witness replay, never flip Undetectable).
func TestFlowCacheSoundnessAfterRebuild(t *testing.T) {
	env := flow.NewEnv()
	c := bench.MustBuild("sparc_spu", env.Lib)
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild a small convex region with the same mapper, as resyn would.
	region := netlist.ExtractRegion(netlist.ConvexClosure(c, c.Gates[:3]))
	rs, err := synth.SynthesizeRegion(c, region, env.Mapper,
		func(*library.Cell) bool { return true }, synth.Delay, nil, "rb_")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := rs.Rebuild(c)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := env.AnalyzeIncremental(nc, orig)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache with the original circuit's verdicts, then re-analyze
	// the rebuilt circuit through it.
	env.FaultCache = fcache.New()
	defer func() { env.FaultCache = nil }()
	if _, err := env.Analyze(c, geom.Rect{}); err != nil {
		t.Fatal(err)
	}
	got, err := env.AnalyzeIncremental(nc, orig)
	if err != nil {
		t.Fatal(err)
	}

	if got.Result.CacheHits == 0 {
		t.Error("rebuild left every cone untouched? expected cache hits > 0")
	}
	refSt, gotSt := statuses(ref), statuses(got)
	if len(refSt) != len(gotSt) {
		t.Fatalf("fault universes diverged: %d vs %d", len(refSt), len(gotSt))
	}
	for i := range refSt {
		ru := refSt[i] == fault.Undetectable
		gu := gotSt[i] == fault.Undetectable
		if ru != gu {
			t.Errorf("fault %d: cached verdict %s vs fresh %s — undetectable set changed",
				i, gotSt[i], refSt[i])
		}
	}
}
