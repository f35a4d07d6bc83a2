// BENCH_flow.json emitter: a machine-readable per-circuit record of the
// flow's performance — Analyze wall time, the ATPG share of it, and the
// verdict-cache hit rate of a warm re-analysis. Guarded by BENCH_FLOW_OUT
// so plain `go test` stays silent; `make benchflow` writes BENCH_flow.json.
package dfmresyn

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/par"
	"dfmresyn/internal/verilog"
)

type benchFlowRow struct {
	Circuit        string  `json:"circuit"`
	Gates          int     `json:"gates"`
	Faults         int     `json:"faults"`
	Tests          int     `json:"tests"`
	AnalyzeSeconds float64 `json:"analyze_seconds"`
	ATPGSeconds    float64 `json:"atpg_seconds"`
	WarmAnalyzeSec float64 `json:"warm_analyze_seconds"`
	WarmATPGSecs   float64 `json:"warm_atpg_seconds"`
	CacheHitRate   float64 `json:"warm_cache_hit_rate"`
	// Backtrack tail of the static implication screen: the cold run
	// above has the screen on (the flow default); a second cold run
	// with the screen off supplies the baseline. Avoided searches are
	// the faults the screen proved undetectable with zero PODEM work;
	// the backtrack columns record the search tail that disappears with
	// them (undetectable faults are exactly the ones that burn a full
	// backtrack budget proving a negative).
	StaticProven     int     `json:"static_proven"`
	SearchesNoScreen int64   `json:"podem_searches_noscreen"`
	SearchesScreen   int64   `json:"podem_searches_screen"`
	SearchesAvoided  int64   `json:"podem_searches_avoided"`
	BacktracksNoScr  int64   `json:"podem_backtracks_noscreen"`
	BacktracksScreen int64   `json:"podem_backtracks_screen"`
	BacktrackCut     float64 `json:"podem_backtrack_cut"`
	// CDCL escalation tier: every search of the cold run that exhausts
	// the default backtrack budget is settled by the solver;
	// sat_escalations / sat_conflicts record its work there.
	SATEscalations int   `json:"sat_escalations"`
	SATConflicts   int64 `json:"sat_conflicts"`
	// Worker scaling: a second cold analysis pinned to one worker gives
	// the serial baseline next to the default (NumCPU) pass above; the
	// speedup is the ATPG-stage ratio, since only classification fans out.
	// On a one-CPU machine that ratio measures pool overhead, not
	// scaling, so the speedup column is only written when cpus > 1.
	AnalyzeSecW1  float64 `json:"analyze_seconds_1worker"`
	ATPGSecW1     float64 `json:"atpg_seconds_1worker"`
	WorkerSpeedup float64 `json:"atpg_worker_speedup,omitempty"`
	// DFM scan columns: wall time of one fault-universe build over the
	// cold layout, and how many candidate bridge pairs the occupancy-grid
	// scan examined against a naive all-pairs check.
	DFMScanUS        int64   `json:"dfm_scan_micros"`
	DFMPairReduction float64 `json:"dfm_pair_reduction"`
	// Provenance of the cold analysis: the flight-recorder digest (the
	// canonical ledger identity — two runs decided identically iff their
	// digests agree, so regressions show up as a changed column) and the
	// per-tier verdict breakdown behind it.
	LedgerDigest string         `json:"ledger_digest"`
	Tiers        obs.TierCounts `json:"tiers"`
	// Metrics embeds the circuit's obs-registry snapshot (counters,
	// gauges, histograms, series) covering all three analyses, so each
	// perf row is self-describing: the engine activity behind the wall
	// times travels with them.
	Metrics json.RawMessage `json:"metrics"`
}

// benchFlowScaleRow records the large synthetic tier: circuits far beyond
// the paper's 146–332 gates, ingested through the Verilog writer/reader
// round trip (the external-netlist path the CLI's -fromverilog exercises)
// and analyzed once. At this scale the pair-reduction column shows the
// asymptotic gap the paper-size rows cannot.
type benchFlowScaleRow struct {
	Circuit          string  `json:"circuit"`
	Gates            int     `json:"gates"`
	Faults           int     `json:"faults"`
	Tests            int     `json:"tests"`
	AnalyzeSeconds   float64 `json:"analyze_seconds"`
	ATPGSeconds      float64 `json:"atpg_seconds"`
	DFMScanUS        int64   `json:"dfm_scan_micros"`
	DFMPairReduction float64 `json:"dfm_pair_reduction"`
}

type benchFlowReport struct {
	// Workers and GoMaxProc are the effective values the run used (the
	// worker pool defaults to NumCPU); CPUs records the machine size so a
	// row can't silently under-report available parallelism.
	Workers   int                 `json:"workers"`
	GoMaxProc int                 `json:"gomaxprocs"`
	CPUs      int                 `json:"cpus"`
	Rows      []benchFlowRow      `json:"rows"`
	Scale     []benchFlowScaleRow `json:"scale"`
}

// dfmScanMicros times one DFM fault-universe build over a finished layout.
func dfmScanMicros(d *flow.Design, prof *dfm.LibraryProfile) int64 {
	t0 := time.Now()
	dfm.BuildFaults(d.C, d.Lay, prof)
	return time.Since(t0).Microseconds()
}

func TestBenchFlowJSON(t *testing.T) {
	out := os.Getenv("BENCH_FLOW_OUT")
	if out == "" {
		t.Skip("set BENCH_FLOW_OUT=<path> to emit the flow benchmark JSON")
	}
	rep := benchFlowReport{
		Workers:   par.Count(0),
		GoMaxProc: runtime.GOMAXPROCS(0),
		CPUs:      runtime.NumCPU(),
	}
	for _, name := range bench.Names {
		env := flow.NewEnv()
		env.FaultCache = fcache.New()
		env.Obs = obs.New()
		// Flight recorder over the cold analysis only: its digest is the
		// run's provenance identity, detached before the warm pass so the
		// column stays a pure function of the cold run.
		var ledgerBuf bytes.Buffer
		ledger := obs.NewLedger(&ledgerBuf)
		env.Ledger = ledger
		c := bench.MustBuild(name, env.Lib)

		t0 := time.Now()
		cold, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analyze := time.Since(t0)
		env.Ledger = nil
		if err := ledger.Close(); err != nil {
			t.Fatalf("%s ledger: %v", name, err)
		}
		if cold.Result.Aborted != 0 {
			t.Errorf("%s: %d faults Aborted — escalation must prove everything", name, cold.Result.Aborted)
		}

		// Screen-on engine counters for the cold run, read before the
		// warm analysis adds to the same registry.
		scrSearches := env.Obs.Registry().Counter("atpg/podem_searches").Get()
		scrBacktracks := env.Obs.Registry().Counter("atpg/podem_backtracks").Get()

		// Baseline cold run with the static screen off, in its own env
		// and registry so nothing is shared with the screen-on run.
		envOff := flow.NewEnv()
		envOff.ATPG.Static = false
		envOff.Obs = obs.New()
		if _, err := envOff.Analyze(bench.MustBuild(name, envOff.Lib), geom.Rect{}); err != nil {
			t.Fatalf("%s screen-off baseline: %v", name, err)
		}
		offSearches := envOff.Obs.Registry().Counter("atpg/podem_searches").Get()
		offBacktracks := envOff.Obs.Registry().Counter("atpg/podem_backtracks").Get()

		// Serial baseline: the same cold analysis pinned to one worker,
		// in its own env so no verdict cache is shared.
		envW1 := flow.NewEnv()
		envW1.Workers = 1
		t1w := time.Now()
		w1, err := envW1.Analyze(bench.MustBuild(name, envW1.Lib), geom.Rect{})
		if err != nil {
			t.Fatalf("%s 1-worker baseline: %v", name, err)
		}
		w1Analyze := time.Since(t1w)

		t1 := time.Now()
		warm, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		warmAnalyze := time.Since(t1)
		hit := 0.0
		if warm.Result.CacheLookups > 0 {
			hit = float64(warm.Result.CacheHits) / float64(warm.Result.CacheLookups)
		}

		row := benchFlowRow{
			Circuit:        name,
			Gates:          len(cold.C.Gates),
			Faults:         cold.Faults.Len(),
			Tests:          len(cold.Result.Tests),
			AnalyzeSeconds: analyze.Seconds(),
			ATPGSeconds:    cold.ATPGTime.Seconds(),
			WarmAnalyzeSec: warmAnalyze.Seconds(),
			WarmATPGSecs:   warm.ATPGTime.Seconds(),
			CacheHitRate:   hit,

			StaticProven:     cold.Result.StaticProven,
			SearchesNoScreen: offSearches,
			SearchesScreen:   scrSearches,
			SearchesAvoided:  offSearches - scrSearches,
			BacktracksNoScr:  offBacktracks,
			BacktracksScreen: scrBacktracks,
		}
		if offBacktracks > 0 {
			row.BacktrackCut = 1 - float64(scrBacktracks)/float64(offBacktracks)
		}
		row.SATEscalations = cold.Result.SATEscalations
		row.SATConflicts = cold.Result.SATConflicts
		row.AnalyzeSecW1 = w1Analyze.Seconds()
		row.ATPGSecW1 = w1.ATPGTime.Seconds()
		if s := cold.ATPGTime.Seconds(); s > 0 && rep.CPUs > 1 {
			row.WorkerSpeedup = w1.ATPGTime.Seconds() / s
		}
		row.DFMScanUS = dfmScanMicros(cold, env.Prof)
		row.DFMPairReduction = cold.DFMStats.PairReduction()
		row.LedgerDigest = ledger.Digest()
		row.Tiers = cold.Result.Tiers
		snap, err := json.Marshal(env.Obs.Registry().Snapshot())
		if err != nil {
			t.Fatalf("%s metrics snapshot: %v", name, err)
		}
		row.Metrics = snap
		rep.Rows = append(rep.Rows, row)
	}
	// The synthetic scale tier, ingested through the Verilog round trip so
	// the external-netlist path gets exercised at real size.
	for _, name := range bench.ScaleNames {
		env := flow.NewEnv()
		var buf bytes.Buffer
		if err := verilog.WriteModule(&buf, bench.MustBuild(name, env.Lib)); err != nil {
			t.Fatalf("%s: write verilog: %v", name, err)
		}
		c, err := verilog.ReadModule(&buf, env.Lib)
		if err != nil {
			t.Fatalf("%s: read verilog: %v", name, err)
		}
		t0 := time.Now()
		d, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analyze := time.Since(t0)
		red := d.DFMStats.PairReduction()
		if name == "synth10k" && red < 10 {
			t.Errorf("synth10k pair reduction %.1fx, want >= 10x", red)
		}
		rep.Scale = append(rep.Scale, benchFlowScaleRow{
			Circuit:          name,
			Gates:            len(d.C.Gates),
			Faults:           d.Faults.Len(),
			Tests:            len(d.Result.Tests),
			AnalyzeSeconds:   analyze.Seconds(),
			ATPGSeconds:      d.ATPGTime.Seconds(),
			DFMScanUS:        dfmScanMicros(d, env.Prof),
			DFMPairReduction: red,
		})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d circuits)", out, len(rep.Rows))
}
