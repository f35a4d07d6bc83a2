package flow

import (
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/lint"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/route"
	"dfmresyn/internal/synth"
)

func testEnv() *Env {
	e := NewEnv()
	// Keep tests fast: fewer random blocks, smaller limit.
	e.ATPG.RandomBlocks = 4
	e.ATPG.BacktrackLimit = 2000
	return e
}

func TestAnalyzeEndToEnd(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_tlu", env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Faults.Len() == 0 {
		t.Fatal("no faults")
	}
	counts := d.Faults.Count()
	if counts.Detected+counts.Undetectable+counts.Aborted != counts.Total {
		t.Error("fault status partition broken")
	}
	if counts.Undetectable == 0 {
		t.Error("expected undetectable faults in sparc_tlu")
	}
	if d.Timing.CriticalDelay <= 0 || d.Power.Total <= 0 {
		t.Error("degenerate timing/power")
	}
	if len(d.Clusters.Sets) == 0 {
		t.Error("no clusters over a non-empty U")
	}

	// The invariant that ties the whole pipeline together: the final
	// test set T detects every fault marked Detected and none marked
	// Undetectable.
	eng := faultsim.New(c)
	for _, f := range d.Faults.Faults {
		det := false
		for start := 0; start < len(d.Result.Tests) && !det; start += 64 {
			end := start + 64
			if end > len(d.Result.Tests) {
				end = len(d.Result.Tests)
			}
			if eng.Detects(f, eng.SimBlock(d.Result.Tests[start:end])) != 0 {
				det = true
			}
		}
		switch f.Status {
		case fault.Detected:
			if !det {
				t.Fatalf("fault %v marked detected, not covered by T", f)
			}
		case fault.Undetectable:
			if det {
				t.Fatalf("fault %v marked undetectable, detected by T", f)
			}
		}
	}
}

func TestMetricsConsistency(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_spu", env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.F != m.FIn+m.FEx {
		t.Errorf("F=%d != FIn+FEx=%d", m.F, m.FIn+m.FEx)
	}
	if m.U != m.UIn+m.UEx {
		t.Errorf("U=%d != UIn+UEx=%d", m.U, m.UIn+m.UEx)
	}
	if m.Smax > m.U {
		t.Errorf("Smax=%d exceeds U=%d", m.Smax, m.U)
	}
	if m.SmaxI > m.Smax {
		t.Errorf("SmaxI=%d exceeds Smax=%d", m.SmaxI, m.Smax)
	}
	wantCov := 1 - float64(m.U)/float64(m.F)
	if m.Cov != wantCov {
		t.Errorf("Cov=%v, want %v", m.Cov, wantCov)
	}
	if m.Gmax > m.GU {
		t.Errorf("Gmax=%d exceeds GU=%d", m.Gmax, m.GU)
	}
}

func TestUndetectableInternalMatchesFullFlow(t *testing.T) {
	// The pre-PD internal screen must agree with the internal share of
	// the full analysis (internal faults are layout-independent).
	env := testEnv()
	c := bench.MustBuild("sparc_ffu", env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	screen := env.UndetectableInternal(c)
	full := d.Faults.Count().UndetectableInt
	if screen != full {
		t.Errorf("internal screen %d != full-flow internal undetectable %d", screen, full)
	}
}

func TestAnalyzeIncrementalKeepsLocations(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_tlu", env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-analyze the identical netlist incrementally: all locations kept,
	// identical timing.
	d2, err := env.AnalyzeIncremental(c, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if d.P.Loc[g.ID] != d2.P.Loc[g.ID] {
			t.Fatalf("gate %s moved in incremental placement of identical netlist", g.Name)
		}
	}
	if d.Timing.CriticalDelay != d2.Timing.CriticalDelay {
		t.Errorf("identical netlist, different delay: %v vs %v",
			d.Timing.CriticalDelay, d2.Timing.CriticalDelay)
	}
}

func TestAnalyzeFixedDieTooSmall(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_tlu", env.Lib)
	_, err := env.Analyze(c, geom.Rect{X0: 0, Y0: 0, X1: 6, Y1: 6})
	if err == nil {
		t.Fatal("analysis in a too-small die must fail (area constraint)")
	}
}

func TestInternalFaultListShape(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_spu", env.Lib)
	l := env.InternalFaultList(c)
	want := 0
	for _, g := range c.Gates {
		want += env.Prof.InternalFaultCount(g.Type)
	}
	if l.Len() != want {
		t.Errorf("internal list %d faults, want %d", l.Len(), want)
	}
	for _, f := range l.Faults {
		if !f.Internal || f.Model != fault.CellAware {
			t.Fatalf("non-internal fault in internal list: %v", f)
		}
	}
}

// TestMetricsPhysicalOnly: Metrics() on a design without fault analysis
// must not panic (regression: it dereferenced d.Faults unconditionally) and
// must report the physical numbers while the fault columns stay zero.
func TestMetricsPhysicalOnly(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_tlu", env.Lib)
	d, err := env.PhysicalOnly(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.F != 0 || m.U != 0 || m.T != 0 || m.Cov != 0 {
		t.Errorf("physical-only design reports fault metrics: %+v", m)
	}
	if m.Area <= 0 || m.Delay <= 0 || m.Power <= 0 {
		t.Errorf("physical-only design misses physical metrics: area=%v delay=%v power=%v",
			m.Area, m.Delay, m.Power)
	}
}

// TestLintIncrementalSpliceCorruption: the pipe/placement-bounds and
// pipe/route-layers rules must hold on an ECO-placed layout — and must
// catch a corrupted route or placement when we break one by hand.
func TestLintIncrementalSpliceCorruption(t *testing.T) {
	env := testEnv()
	c := bench.MustBuild("sparc_tlu", env.Lib)
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	region := netlist.ExtractRegion(netlist.ConvexClosure(c, c.Gates[:4]))
	rs, err := synth.SynthesizeRegion(c, region, env.Mapper,
		func(*library.Cell) bool { return true }, synth.Delay, nil, "rb_")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := rs.Rebuild(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := env.AnalyzeIncremental(nc, orig)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &lint.Context{Circuit: d.C, Placement: d.P, Layout: d.Lay}
	if fs := lint.Run(ctx); lint.CountAtLeast(fs, lint.Error) > 0 {
		t.Fatalf("clean incremental layout has lint errors: %v", fs)
	}
	wantRule := func(fs []lint.Finding, rule string) {
		t.Helper()
		for _, f := range fs {
			if f.Rule == rule {
				return
			}
		}
		t.Errorf("expected a %s finding, got %v", rule, fs)
	}
	// Corruption 1: a routed segment lands on an undeclared layer.
	for i := range d.Lay.Routes {
		if len(d.Lay.Routes[i].Segs) > 0 {
			d.Lay.Routes[i].Segs[0].Layer = route.M1
			break
		}
	}
	wantRule(lint.Run(ctx), "pipe/route-layers")
	// Corruption 2: a kept gate's location escapes the die.
	d.P.Loc[d.C.Gates[0].ID] = geom.Pt{X: d.P.Die.X1 + 3, Y: d.P.Die.Y0}
	wantRule(lint.Run(ctx), "pipe/placement-bounds")
}
