// Package flow wires the complete per-circuit pipeline of the paper: the
// netlist is placed and routed into a fixed floorplan, the DFM guideline
// checker translates violations into the fault universe F, ATPG generates
// the test set T and proves the set U undetectable, and the clustering
// analysis computes S_max / G_max. The resulting Design carries everything
// the resynthesis procedure and the table generators need.
package flow

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/cluster"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/lint"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/place"
	"dfmresyn/internal/power"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/route"
	"dfmresyn/internal/sta"
	"dfmresyn/internal/synth"
)

// CoreUtilization is the floorplan utilization used for every original
// design, as in the paper's experimental setup.
const CoreUtilization = 0.70

// Env is the shared per-run context: library, its DFM profile, the
// technology mapper, and analysis configuration.
type Env struct {
	Lib    *library.Library
	Prof   *dfm.LibraryProfile
	Mapper *synth.Mapper
	ATPG   atpg.Config
	Seed   int64
	// Lint selects static-analysis enforcement on every design the
	// pipeline produces: off (default), warn (record findings on the
	// Design), or strict (Error findings abort the analysis).
	Lint lint.Mode
	// Workers bounds the fault-classification worker pool (0 = NumCPU).
	// Any value yields byte-identical analysis results.
	Workers int
	// FaultCache, when non-nil, carries fault verdicts across analyses:
	// faults whose support cone is untouched by a rebuild reuse their
	// verdict instead of re-entering PODEM. resyn installs one per run so
	// the whole q-sweep shares it.
	FaultCache *fcache.Cache
	// Obs, when non-nil, receives a span per pipeline stage (place, route,
	// dfm, atpg, cluster — and the ECO placement variant) plus stage
	// counters, giving every analysis per-phase wall-time and allocation
	// attribution. nil is a zero-overhead no-op; tracing never changes any
	// analysis result.
	Obs *obs.Tracer
	// Ctx, when non-nil, cancels every analysis this environment runs.
	// Cancellation is cooperative and only observed at deterministic
	// boundaries (between pipeline stages, between ATPG batches); a
	// cancelled analysis returns an error wrapping resilience.ErrInterrupted
	// and never a partially-classified Design. nil never cancels.
	Ctx context.Context
	// StageTimeout, when positive, bounds the wall time of each fault-
	// classification stage (the pipeline's only unbounded-search stage) by
	// deriving a per-stage deadline from Ctx. The deterministic per-fault
	// budget remains ATPG.BacktrackLimit; the deadline is the backstop for
	// a wedged stage, and expiry aborts the analysis like a cancellation.
	StageTimeout time.Duration
	// Ledger, when non-nil, is the run flight recorder: every fault-
	// classification stage the environment runs appends one stage record
	// plus per-fault verdict provenance (see obs.Ledger and atpg.Config.
	// Ledger). The pre-physical internal screen (UndetectableInternal) does
	// not emit — its analyses are advisory, not verdict stages. nil is off
	// and free.
	Ledger *obs.Ledger
}

// atpgConfig resolves the effective test-generation configuration: the
// environment's ATPG settings plus the worker-pool, cache, cancellation and
// tracing plumbing.
func (e *Env) atpgConfig() atpg.Config {
	cfg := e.ATPG
	cfg.Workers = e.Workers
	cfg.Cache = e.FaultCache
	cfg.Obs = e.Obs
	cfg.Ctx = e.Ctx
	if e.FaultCache != nil {
		e.FaultCache.Instrument(e.Obs)
	}
	return cfg
}

// osuLibrary builds the OSU-like library and derives its DFM profile (a
// switch-level simulation of every cell feature) once per process. Both are
// read-only once built, so every Env shares them.
var osuLibrary = sync.OnceValues(func() (*library.Library, *dfm.LibraryProfile) {
	lib := library.OSU018Like()
	return lib, dfm.ProfileLibrary(lib)
})

// NewEnv builds the default environment over the OSU-like library and its
// profile, shared read-only with every other Env of the process.
func NewEnv() *Env {
	lib, prof := osuLibrary()
	return &Env{
		Lib:    lib,
		Prof:   prof,
		Mapper: synth.NewMapper(lib),
		ATPG:   atpg.DefaultConfig(),
		Seed:   1,
	}
}

// Design is a fully analyzed placed-and-routed circuit.
type Design struct {
	Env      *Env
	C        *netlist.Circuit
	Die      geom.Rect
	P        *place.Placement
	Lay      *route.Layout
	Faults   *fault.List
	DFMRep   *dfm.Report
	Result   atpg.Result
	Clusters *cluster.Result
	Timing   sta.Report
	Power    power.Report
	// ATPGTime is the wall time of the test-generation stage (the Rtime
	// numerator the paper's Table II tracks is dominated by it).
	ATPGTime time.Duration
	// LintFindings holds the static-analysis findings recorded when the
	// environment's lint mode is warn or strict (nil when off).
	LintFindings []lint.Finding
	// DFMStats reports how many candidate net pairs the DFM bridge scan
	// examined versus a naive all-pairs check. Informational: no table
	// reads it.
	DFMStats dfm.ScanStats
}

// lintDesign runs the static analyzer over whatever artifacts the design
// carries so far, per e.Lint. In strict mode Error findings become an
// error wrapping lint.ErrFindings.
func (e *Env) lintDesign(d *Design) error {
	if e.Lint == lint.ModeOff {
		return nil
	}
	d.LintFindings = lint.Run(&lint.Context{
		Circuit:   d.C,
		Placement: d.P,
		Layout:    d.Lay,
		Faults:    d.Faults,
		Clusters:  d.Clusters,
	})
	if e.Lint == lint.ModeStrict {
		return lint.Err(d.LintFindings, lint.Error)
	}
	return nil
}

// analyzeFaults is the analysis tail shared by Analyze, AnalyzeIncremental
// and VerifyFaults: build the DFM fault universe from the layout, then
// classify it.
func (e *Env) analyzeFaults(d *Design, stage string) error {
	sp := obs.Start(e.Obs, "flow/dfm")
	d.Faults, d.DFMRep, d.DFMStats = dfm.BuildFaultsStats(d.C, d.Lay, e.Prof)
	sp.Annotate(obs.Int("faults", d.Faults.Len()))
	sp.End()
	e.Obs.Counter("dfm/full_builds").Inc()
	e.Obs.Counter("dfm/bridge_pairs_examined").Add(d.DFMStats.BridgePairs)
	e.Obs.Counter("dfm/bridge_pairs_naive").Add(d.DFMStats.BridgePairsNaive)
	if r := d.DFMStats.PairReduction(); r > 0 {
		e.Obs.Histogram("dfm/pair_reduction", 1, 3, 10, 30, 100, 300, 1000, 3000).Observe(r)
	}
	return e.classifyFaults(d, stage)
}

// classifyFaults runs test generation over an already-built fault universe
// (through the worker pool and verdict cache, when configured), clusters
// the undetectable faults, and lints the result. With Env.StageTimeout set,
// the stage runs under its own deadline derived from Env.Ctx; expiry or
// cancellation aborts the analysis with resilience.ErrInterrupted and the
// partially-classified Design is never returned to the caller.
func (e *Env) classifyFaults(d *Design, stage string) error {
	sp := obs.Start(e.Obs, "flow/atpg", obs.Int("faults", d.Faults.Len()))
	cfg := e.atpgConfig()
	cfg.Ledger = e.Ledger
	cfg.Stage = stage
	if e.StageTimeout > 0 {
		base := e.Ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, e.StageTimeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	t0 := time.Now()
	d.Result = atpg.Run(d.C, d.Faults, cfg)
	d.ATPGTime = time.Since(t0)
	sp.Annotate(obs.Int("tests", len(d.Result.Tests)),
		obs.Int("undetectable", d.Result.Undetectable))
	sp.End()
	if d.Result.Cancelled {
		e.Obs.Counter("flow/cancelled_analyses").Inc()
		return fmt.Errorf("flow: atpg stage cancelled with %d/%d faults resolved: %w",
			len(d.Result.Resolved), d.Faults.Len(), resilience.ErrInterrupted)
	}
	spc := obs.Start(e.Obs, "flow/cluster")
	d.Clusters = cluster.Build(d.Faults.UndetectableFaults())
	spc.End()
	if err := e.lintDesign(d); err != nil {
		return fmt.Errorf("flow: %w", err)
	}
	return nil
}

// Analyze runs the full pipeline on a netlist. A zero die means "size a
// fresh floorplan at 70% utilization"; otherwise the circuit is placed into
// the given (original) die and an error reports an area violation.
func (e *Env) Analyze(c *netlist.Circuit, die geom.Rect) (*Design, error) {
	sp := obs.Start(e.Obs, "flow/analyze", obs.Int("gates", len(c.Gates)))
	defer sp.End()
	if err := resilience.Err(e.Ctx); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	e.Obs.Counter("flow/analyses").Inc()
	d, err := e.PhysicalOnly(c, die)
	if err != nil {
		return nil, err
	}
	if err := e.analyzeFaults(d, "analyze"); err != nil {
		return nil, err
	}
	return d, nil
}

// VerifyFaults re-runs fault classification on an already-analyzed design
// with the verdict cache bypassed, sharing the physical results (placement,
// routing, timing, power) untouched. The returned design's test set and
// detected/aborted split are a pure function of the circuit and the ATPG
// seed — not of whatever cache history the caller's sweep accumulated —
// which is what makes a resumed run's signoff row byte-identical to the
// uninterrupted run's. The undetectable set (and hence the clusters) is
// cache-sound either way, so U and S_max cannot move.
func (e *Env) VerifyFaults(d *Design) (*Design, error) {
	sp := obs.Start(e.Obs, "flow/verify_faults", obs.Int("gates", len(d.C.Gates)))
	defer sp.End()
	if err := resilience.Err(e.Ctx); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	e.Obs.Counter("flow/verify_faults").Inc()
	nd := *d
	cache := e.FaultCache
	e.FaultCache = nil
	err := e.analyzeFaults(&nd, "verify")
	e.FaultCache = cache
	if err != nil {
		return nil, err
	}
	return &nd, nil
}

// AnalyzeIncremental is Analyze with ECO-style placement, the way the
// resynthesis procedure re-runs PDesign() on a rebuilt circuit. The
// circuit's nets and gates first take the previous design's order
// (netlist.ReorderLike), which fixes the order the router walks nets in and
// so the congestion each net sees. Gates shared with the previous design
// keep their locations and only new gates are placed
// (place.PlaceIncremental), so the unchanged portion of the layout — and
// its timing — stays put. Routing, timing, power and the DFM check then run
// over the whole die exactly as in Analyze.
func (e *Env) AnalyzeIncremental(c *netlist.Circuit, prev *Design) (*Design, error) {
	sp := obs.Start(e.Obs, "flow/analyze_incr", obs.Int("gates", len(c.Gates)))
	defer sp.End()
	if err := resilience.Err(e.Ctx); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	e.Obs.Counter("flow/incremental_analyses").Inc()
	c = netlist.ReorderLike(c, prev.C)
	spPlace := obs.Start(e.Obs, "flow/place_incr")
	p, err := place.PlaceIncremental(c, prev.P, e.Seed)
	spPlace.End()
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	d, err := e.routeAndTime(p)
	if err != nil {
		return nil, err
	}
	// Every re-analysis re-routes the whole die; the count keeps that
	// cost visible next to the span times.
	e.Obs.Counter("route/nets_rerouted").Add(int64(len(d.Lay.Routes)))
	if err := e.analyzeFaults(d, "analyze-incr"); err != nil {
		return nil, err
	}
	return d, nil
}

// PhysicalOnly performs placement, routing, timing and power analysis
// without fault analysis (used for constraint checks during backtracking).
func (e *Env) PhysicalOnly(c *netlist.Circuit, die geom.Rect) (*Design, error) {
	if err := resilience.Err(e.Ctx); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	spPlace := obs.Start(e.Obs, "flow/place", obs.Int("gates", len(c.Gates)))
	var p *place.Placement
	var err error
	if die.Area() == 0 {
		p, err = place.Place(c, CoreUtilization, e.Seed)
	} else {
		p, err = place.PlaceInDie(c, die, e.Seed)
	}
	spPlace.End()
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	d, err := e.routeAndTime(p)
	if err != nil {
		return nil, err
	}
	if err := e.lintDesign(d); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	return d, nil
}

// routeAndTime is the physical tail shared by PhysicalOnly and
// AnalyzeIncremental: check the placement is legal, route it, and run
// timing and power on the routed loads.
func (e *Env) routeAndTime(p *place.Placement) (*Design, error) {
	if err := p.VerifyLegal(); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	c := p.C
	spRoute := obs.Start(e.Obs, "flow/route", obs.Int("nets", len(c.Nets)))
	lay := route.Route(p)
	spRoute.End()
	d := &Design{Env: e, C: c, Die: p.Die, P: p, Lay: lay}
	spSTA := obs.Start(e.Obs, "flow/sta_power")
	loads := sta.LoadFromLayout(lay)
	d.Timing = sta.Analyze(c, loads)
	d.Power = power.Estimate(c, loads, 4, e.Seed)
	spSTA.End()
	return d, nil
}

// InternalFaultList builds the internal-only fault list of a netlist (no
// layout needed: internal faults do not depend on placement and routing).
func (e *Env) InternalFaultList(c *netlist.Circuit) *fault.List {
	return dfm.InternalFaults(c, e.Prof)
}

// UndetectableInternal counts the proven-undetectable internal faults of a
// netlist — the pre-physical-design screen the paper uses to decide whether
// PDesign() is worth calling. Under a cancelled Env.Ctx the count is a
// partial lower bound; callers that observe cancellation must discard it
// (resyn does: the screen's result only ever gates an analysis that would
// itself fail with ErrInterrupted).
func (e *Env) UndetectableInternal(c *netlist.Circuit) int {
	sp := obs.Start(e.Obs, "flow/uint_screen")
	defer sp.End()
	l := e.InternalFaultList(c)
	cfg := e.atpgConfig()
	cfg.NoCompact = true // only the U count is kept, never the test set
	atpg.Run(c, l, cfg)
	return l.Count().Undetectable
}

// Metrics are the per-design numbers reported in Tables I and II.
type Metrics struct {
	// Table I columns.
	FIn, FEx, UIn, UEx, GU, Gmax int
	// Shared / Table II columns.
	F, U, T      int
	Cov          float64
	Smax         int
	PctSmaxU     float64 // %Smax_U  (Table I: share of U inside S_max)
	PctSmaxAll   float64 // %Smax_all (Table II: share of F inside S_max)
	SmaxI        int
	PctSmaxI     float64
	Delay, Power float64
	Area         float64
	// Perf columns (the Rtime-style reporting of the parallel engine):
	// ATPG wall seconds and the verdict-cache hit rate of this analysis.
	ATPGSeconds  float64
	CacheHitRate float64
	// StaticProven is the number of faults the static implication screen
	// classified Undetectable without a PODEM search (subset of U).
	StaticProven int
	// Aborted is the number of faults left unproven (neither detected nor
	// undetectable). They count as covered in Cov — the paper's convention
	// — so this column keeps the inflation honest. The SAT tier settles
	// every search that exhausts the backtrack budget, so only a fault
	// quarantined after two worker panics can land here.
	Aborted int
	// SATEscalations / SATConflicts report the CDCL escalation tier's
	// work during this analysis (zero when no search exhausted the
	// backtrack budget).
	SATEscalations int
	SATConflicts   int64
}

// Metrics extracts the table numbers from an analyzed design. It also
// works on a PhysicalOnly design (no fault analysis): the fault, coverage
// and cluster columns stay zero while area, delay and power are reported.
func (d *Design) Metrics() Metrics {
	m := Metrics{}
	if d.Faults != nil {
		counts := d.Faults.Count()
		m.F = counts.Total
		m.U = counts.Undetectable
		m.Aborted = counts.Aborted
		m.FIn = counts.Internal
		m.FEx = counts.External
		m.UIn = counts.UndetectableInt
		m.UEx = counts.UndetectableExt
		m.Cov = d.Faults.Coverage()
	}
	m.T = len(d.Result.Tests)
	if d.Clusters != nil {
		smax := d.Clusters.Smax()
		m.Smax = len(smax)
		m.SmaxI = cluster.InternalCount(smax)
		m.GU = len(d.Clusters.GU)
		m.Gmax = len(d.Clusters.Gmax())
		if m.U > 0 {
			m.PctSmaxU = 100 * float64(m.Smax) / float64(m.U)
		}
		if m.F > 0 {
			m.PctSmaxAll = 100 * float64(m.Smax) / float64(m.F)
		}
		if m.Smax > 0 {
			m.PctSmaxI = 100 * float64(m.SmaxI) / float64(m.Smax)
		}
	}
	m.Delay = d.Timing.CriticalDelay
	m.Power = d.Power.Total
	m.Area = d.C.Stats().Area
	m.ATPGSeconds = d.ATPGTime.Seconds()
	m.StaticProven = d.Result.StaticProven
	m.SATEscalations = d.Result.SATEscalations
	m.SATConflicts = d.Result.SATConflicts
	if d.Result.CacheLookups > 0 {
		m.CacheHitRate = float64(d.Result.CacheHits) / float64(d.Result.CacheLookups)
	}
	return m
}
