// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark prints the corresponding rows/series; absolute
// numbers differ from the paper (the substrate is a from-scratch simulator,
// not the authors' commercial testbed) but the shape — who wins, by what
// factor, where the cluster sizes land — holds. Run with:
//
//	go test -bench=TableI -benchmem          # Table I
//	go test -bench='TableII/tv80' -benchmem  # one Table II circuit
//	go test -bench=. -benchmem               # everything (slow)
package dfmresyn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/doublefault"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/lint"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/sta"
	"dfmresyn/internal/synth"
	"dfmresyn/internal/yield"
)

func newEnv() *flow.Env {
	return flow.NewEnv()
}

// lintBenchOnce guards a one-time netlint smoke check over every benchmark
// circuit, so a corrupt generator fails fast. The sync.Once plus the
// b.ResetTimer at each call site keep the check out of the reported numbers.
var (
	lintBenchOnce sync.Once
	lintBenchErr  error
)

func lintBenchCircuits(b *testing.B) {
	b.Helper()
	lintBenchOnce.Do(func() {
		lib := library.OSU018Like()
		for _, name := range bench.Names {
			c := bench.MustBuild(name, lib)
			fs := lint.Run(&lint.Context{Circuit: c})
			if n := lint.CountAtLeast(fs, lint.Error); n > 0 {
				lintBenchErr = fmt.Errorf("bench circuit %s has %d lint errors (run: go run ./cmd/netlint -bench=%s)", name, n, name)
				return
			}
		}
	})
	if lintBenchErr != nil {
		b.Fatal(lintBenchErr)
	}
	b.ResetTimer()
}

// BenchmarkTableI regenerates Table I: the clustering of undetectable DFM
// faults in the original designs of aes_core, des_perf, sparc_exu and
// sparc_fpu.
func BenchmarkTableI(b *testing.B) {
	lintBenchCircuits(b)
	for i := 0; i < b.N; i++ {
		env := newEnv()
		fmt.Println("\nTABLE I. CLUSTERED UNDETECTABLE FAULTS")
		fmt.Println(report.TableIHeader())
		for _, name := range bench.TableINames {
			c := bench.MustBuild(name, env.Lib)
			d, err := env.Analyze(c, geom.Rect{})
			if err != nil {
				b.Fatal(err)
			}
			fmt.Println(report.TableIRow(name, d.Metrics()))
		}
	}
}

// BenchmarkTableII regenerates Table II per circuit: the orig row, the full
// q-sweep resynthesis, and the resynthesized row including relative delay,
// power and Rtime.
func BenchmarkTableII(b *testing.B) {
	for _, name := range bench.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			lintBenchCircuits(b)
			for i := 0; i < b.N; i++ {
				env := newEnv()
				c := bench.MustBuild(name, env.Lib)
				t0 := time.Now()
				orig, err := env.Analyze(c, geom.Rect{})
				if err != nil {
					b.Fatal(err)
				}
				baseline := time.Since(t0)
				t1 := time.Now()
				r, err := resyn.RunFrom(env, orig, resyn.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rtime := float64(time.Since(t1)) / float64(baseline)
				fmt.Println(report.TableIIHeader())
				fmt.Println(report.TableIIOrigRow(name, r.Orig.Metrics()))
				fmt.Println(report.TableIIResynRow(r, rtime))
			}
		})
	}
}

// BenchmarkFig1Adjacency regenerates the Fig. 1 definition check: of the
// three two-gate arrangements, only direct drive makes gates structurally
// adjacent.
func BenchmarkFig1Adjacency(b *testing.B) {
	lib := library.OSU018Like()
	for i := 0; i < b.N; i++ {
		c := netlist.New("fig1", lib)
		x := c.AddPI("x")
		y := c.AddPI("y")
		g1 := c.AddGate("g1", lib.ByName("INVX1"), x)
		g2 := c.AddGate("g2", lib.ByName("INVX1"), x) // (a) shared fanin
		g3 := c.AddGate("g3", lib.ByName("NAND2X1"), y, g2)
		g4 := c.AddGate("g4", lib.ByName("INVX1"), g1) // (c) direct drive
		c.MarkPO(g3)
		c.MarkPO(g4)
		a := netlist.Adjacent(g1.Driver, g2.Driver)
		bb := netlist.Adjacent(g2.Driver, g4.Driver)
		cc := netlist.Adjacent(g1.Driver, g4.Driver)
		if i == 0 {
			fmt.Printf("\nFig. 1 adjacency: (a) shared-fanin=%v (b) unrelated=%v (c) direct-drive=%v\n", a, bb, cc)
		}
		if a || bb || !cc {
			b.Fatal("Fig. 1 adjacency semantics broken")
		}
	}
}

// BenchmarkFig2PhaseTrace regenerates the Fig. 2 series: the iteration-by-
// iteration evolution of U and S_max as phase one breaks the largest
// clusters and phase two sweeps the rest.
func BenchmarkFig2PhaseTrace(b *testing.B) {
	lintBenchCircuits(b)
	for i := 0; i < b.N; i++ {
		env := newEnv()
		c := bench.MustBuild("aes_core", env.Lib)
		r, err := resyn.Run(env, c, resyn.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println("\nFig. 2 series (aes_core): cluster evolution over accepted iterations")
		fmt.Print(report.Fig2Trace(r))
	}
}

// BenchmarkRestrictedLibrary regenerates the Section IV ablation: removing
// the seven cells with the most internal faults from the library outright
// (instead of targeted resynthesis) blows the delay constraint — the paper
// measured 130%/137% delay and 109% power for sparc_ifu/sparc_fpu.
func BenchmarkRestrictedLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv()
		ordered := env.Lib.SortedBy(func(c *library.Cell) float64 {
			return float64(env.Prof.InternalFaultCount(c))
		})
		dropped := map[*library.Cell]bool{}
		fmt.Println("\nRestricted-library ablation: dropping the 7 most fault-rich cells:")
		for _, c := range ordered[:7] {
			dropped[c] = true
			fmt.Printf("  %s (%d internal faults)\n", c.Name, env.Prof.InternalFaultCount(c))
		}
		allowed := func(c *library.Cell) bool { return !dropped[c] }

		for _, name := range []string{"sparc_ifu", "sparc_fpu"} {
			c := bench.MustBuild(name, env.Lib)
			region := netlist.ExtractRegion(c.Gates)
			// Baseline: full-library whole-circuit synthesis (the paper
			// compares two synthesized designs differing only in the
			// allowed cells).
			rsFull, err := synth.SynthesizeRegion(c, region, env.Mapper,
				func(*library.Cell) bool { return true }, synth.Delay, nil, "fl_")
			if err != nil {
				b.Fatal(err)
			}
			fullC, err := rsFull.Rebuild(c)
			if err != nil {
				b.Fatal(err)
			}
			orig, err := env.Analyze(fullC, geom.Rect{})
			if err != nil {
				b.Fatal(err)
			}
			rs, err := synth.SynthesizeRegion(c, region, env.Mapper, allowed, synth.Delay, nil, "rl_")
			if err != nil {
				b.Fatal(err)
			}
			nc, err := rs.Rebuild(c)
			if err != nil {
				b.Fatal(err)
			}
			d, err := env.Analyze(nc, orig.Die) // same floorplan
			if err != nil {
				fmt.Printf("%-10s restricted synthesis does not fit the original floorplan: %v\n", name, err)
				continue
			}
			fmt.Printf("%-10s delay %.0f%%  power %.0f%%  (paper: 130-137%% / 109%%)\n",
				name,
				100*d.Timing.CriticalDelay/orig.Timing.CriticalDelay,
				100*d.Power.Total/orig.Power.Total)
		}
	}
}

// BenchmarkAblationBacktrackGroup compares the paper's sqrt(n) backtracking
// group size against one-at-a-time and all-at-once on one circuit.
func BenchmarkAblationBacktrackGroup(b *testing.B) {
	variants := []struct {
		name  string
		group int
	}{
		{"sqrt(n)", 0},
		{"one-by-one", 1},
		{"all-at-once", -1},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := newEnv()
				c := bench.MustBuild("sparc_exu", env.Lib)
				t0 := time.Now()
				r, err := resyn.Run(env, c, resyn.Options{BacktrackGroup: v.group})
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("backtrack %-11s U %d->%d synth=%d pd=%d t=%.1fs\n",
					v.name, r.Orig.Faults.Count().Undetectable,
					r.Final.Faults.Count().Undetectable,
					r.SynthCalls, r.PDCalls, time.Since(t0).Seconds())
			}
		})
	}
}

// BenchmarkAblationCellOrder compares exclusion orders: by internal fault
// count (the paper), by area, and by name.
func BenchmarkAblationCellOrder(b *testing.B) {
	variants := []struct {
		name  string
		order resyn.CellOrder
	}{
		{"internal-faults", resyn.OrderInternalFaults},
		{"area", resyn.OrderArea},
		{"name", resyn.OrderName},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := newEnv()
				c := bench.MustBuild("systemcaes", env.Lib)
				r, err := resyn.Run(env, c, resyn.Options{CellOrder: v.order})
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("order %-16s U %d->%d Smax %d->%d synth=%d\n",
					v.name, r.Orig.Faults.Count().Undetectable,
					r.Final.Faults.Count().Undetectable,
					len(r.Orig.Clusters.Smax()), len(r.Final.Clusters.Smax()),
					r.SynthCalls)
			}
		})
	}
}

// BenchmarkAblationPhases compares the full two-phase procedure against
// phase two alone.
func BenchmarkAblationPhases(b *testing.B) {
	variants := []struct {
		name string
		skip bool
	}{
		{"both-phases", false},
		{"phase2-only", true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := newEnv()
				c := bench.MustBuild("aes_core", env.Lib)
				r, err := resyn.Run(env, c, resyn.Options{SkipPhase1: v.skip})
				if err != nil {
					b.Fatal(err)
				}
				mf := r.Final.Metrics()
				fmt.Printf("phases %-12s U %d->%d Smax %d->%d (%%Smax_all %.2f)\n",
					v.name, r.Orig.Faults.Count().Undetectable, mf.U,
					len(r.Orig.Clusters.Smax()), mf.Smax, mf.PctSmaxAll)
			}
		})
	}
}

// BenchmarkAblationEarlyStop compares the rising-U early phase termination
// against exhaustive cell scans.
func BenchmarkAblationEarlyStop(b *testing.B) {
	variants := []struct {
		name string
		off  bool
	}{
		{"early-stop", false},
		{"exhaustive", true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := newEnv()
				c := bench.MustBuild("wb_conmax", env.Lib)
				t0 := time.Now()
				r, err := resyn.Run(env, c, resyn.Options{NoEarlyStop: v.off})
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("earlystop %-11s U %d->%d synth=%d pd=%d t=%.1fs\n",
					v.name, r.Orig.Faults.Count().Undetectable,
					r.Final.Faults.Count().Undetectable,
					r.SynthCalls, r.PDCalls, time.Since(t0).Seconds())
			}
		})
	}
}

// BenchmarkATPGThroughput measures raw test-generation speed on the largest
// Table I circuit (per-fault cost of the full DFM universe).
func BenchmarkATPGThroughput(b *testing.B) {
	env := newEnv()
	c := bench.MustBuild("sparc_exu", env.Lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Faults.Len()), "faults")
	}
}

// BenchmarkPhysicalDesign measures one place-and-route pass.
func BenchmarkPhysicalDesign(b *testing.B) {
	env := newEnv()
	c := bench.MustBuild("aes_core", env.Lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.PhysicalOnly(c, geom.Rect{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTA measures static timing analysis alone.
func BenchmarkSTA(b *testing.B) {
	env := newEnv()
	c := bench.MustBuild("aes_core", env.Lib)
	d, err := env.PhysicalOnly(c, geom.Rect{})
	if err != nil {
		b.Fatal(err)
	}
	load := sta.LoadFromLayout(d.Lay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(c, load)
	}
}

// BenchmarkDoubleFaultBaseline runs the alternative the paper argues
// against (its refs [14][15]): additional tests for double faults made of
// an undetectable fault and an adjacent detectable one. The headline
// comparison is test-set growth: the double-fault approach inflates T while
// leaving U untouched, whereas resynthesis removes U with T nearly flat.
// The pair counts show how many double-fault searches found a test, proved
// none exists, or ran out of backtracks (the baseline runs raw PODEM at the
// flow's budget, with no SAT tier behind it).
func BenchmarkDoubleFaultBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv()
		fmt.Println("\nDouble-fault baseline vs resynthesis (test-set growth):")
		for _, name := range []string{"systemcaes", "sparc_ifu"} {
			c := bench.MustBuild(name, env.Lib)
			orig, err := env.Analyze(c, geom.Rect{})
			if err != nil {
				b.Fatal(err)
			}
			df := doublefault.Run(orig, 3, 1)
			r, err := resyn.RunFrom(env, orig, resyn.Options{})
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%-11s double-fault: +%d tests (tester time %.2fx), U stays %d\n",
				name, df.ExtraTests, df.TesterTimeRel, orig.Faults.Count().Undetectable)
			fmt.Printf("%-11s pairs:        %d covered, %d uncovered, %d aborted\n",
				"", df.CoveredPairs, df.UncoveredPairs, df.AbortedPairs)
			fmt.Printf("%-11s resynthesis:  T %d -> %d, U %d -> %d\n",
				"", len(orig.Result.Tests), len(r.Final.Result.Tests),
				orig.Faults.Count().Undetectable, r.Final.Faults.Count().Undetectable)
		}
	}
}

// BenchmarkDPPMImprovement quantifies the paper's motivation: the
// test-escape DPPM attributable to undetectable-fault clusters, before and
// after resynthesis.
func BenchmarkDPPMImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv()
		m := yield.DefaultModel()
		fmt.Println("\nTest-escape DPPM before/after resynthesis:")
		for _, name := range []string{"systemcaes", "wb_conmax", "sparc_ifu"} {
			c := bench.MustBuild(name, env.Lib)
			orig, err := env.Analyze(c, geom.Rect{})
			if err != nil {
				b.Fatal(err)
			}
			r, err := resyn.RunFrom(env, orig, resyn.Options{})
			if err != nil {
				b.Fatal(err)
			}
			before := m.Assess(orig)
			after := m.Assess(r.Final)
			fmt.Printf("%-11s %.2f -> %.2f DPPM (%.1fx lower; clustered share %.0f%% -> %.0f%%)\n",
				name, before.DPPM, after.DPPM, m.Improvement(orig, r.Final),
				100*before.ClusteredRisk, 100*after.ClusteredRisk)
		}
	}
}
