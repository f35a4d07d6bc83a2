// Command dfmresyn runs the paper's full flow: it builds a benchmark
// circuit, synthesizes its layout, extracts the DFM fault universe, runs
// ATPG, and applies the two-phase resynthesis procedure, printing Table I /
// Table II rows and the Fig. 2 iteration trace.
//
// Usage:
//
//	dfmresyn -table1                 # Table I over its four circuits
//	dfmresyn -table2 -circuit tv80   # Table II rows for one circuit
//	dfmresyn -table2 -all            # full Table II (slow: full q sweep)
//	dfmresyn -trace -circuit aes_core
//	dfmresyn -table2 -all -workers 8 -cpuprofile cpu.out
//	dfmresyn -table2 -circuit tv80 -journal run.ckpt   # resumable sweep
//	dfmresyn -table2 -circuit tv80 -resume run.ckpt    # continue it
//
// Exit codes (also asserted by the CLI test):
//
//	0  success
//	1  usage error, I/O failure, or any error not classified below
//	2  static-analysis findings under -lint strict
//	3  design-constraint violation (the circuit does not fit its die)
//	4  run interrupted — by SIGINT/SIGTERM, a -deadline expiry, or a
//	   simulated -stopafter kill; with -journal set, the checkpoint holds
//	   every committed iteration and -resume continues it
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/chaos"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/lint"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/par"
	"dfmresyn/internal/place"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/verilog"
)

var (
	circuit    = flag.String("circuit", "", "benchmark circuit name (see -list)")
	all        = flag.Bool("all", false, "run every Table II circuit")
	table1     = flag.Bool("table1", false, "print Table I (clustering before resynthesis)")
	table2     = flag.Bool("table2", false, "print Table II (resynthesis results)")
	trace      = flag.Bool("trace", false, "print the Fig. 2 iteration trace (the paper's algorithm-level series; for span tracing see -tracefile)")
	list       = flag.Bool("list", false, "list circuit names")
	maxQ       = flag.Int("q", 5, "maximum acceptable delay/power increase in percent")
	seed       = flag.Int64("seed", 1, "random seed for the whole flow")
	workers    = flag.Int("workers", 0, "fault-classification worker pool size (0 = NumCPU); any value gives identical tables")
	lintMode   = flag.String("lint", "off", "static-analysis enforcement: off, warn, or strict (strict exits 2 on findings)")
	dieSpec    = flag.String("die", "", "place into a fixed WxH die instead of the auto floorplan (e.g. 64x64); a circuit that does not fit exits 3")
	fromVlog   = flag.String("fromverilog", "", "analyze a structural Verilog netlist file (as written by the flow's own writer) instead of a built-in circuit")
	journal    = flag.String("journal", "", "checkpoint the sweep to this journal after every accepted iteration (resume with -resume)")
	resumePath = flag.String("resume", "", "resume an interrupted sweep from this checkpoint journal (requires the same -circuit, -seed and sweep options)")
	deadline   = flag.Duration("deadline", 0, "per-stage deadline for fault classification (e.g. 30s); expiry interrupts the run (exit 4)")
	stopAfter  = flag.Int("stopafter", 0, "stop the sweep after N accepted iterations as a simulated kill (exit 4); with -journal the run is resumable")
	chaosRate  = flag.Float64("chaospanic", 0, "inject worker panics into this fraction of PODEM searches (chaos harness; tables must not change)")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile  = flag.String("tracefile", "", "write a Chrome trace_event JSON of every pipeline span to this file (open in chrome://tracing or Perfetto)")
	metrics    = flag.String("metricsfile", "", "write the metrics-registry snapshot (counters, gauges, histograms, series) as JSON to this file")
	httpAddr   = flag.String("httpaddr", "", "serve live introspection on this address (/metrics, /spans, /ledger, /healthz, /version, /debug/pprof); empty = off")
	ledgerPath = flag.String("ledger", "", "write the run flight recorder — one JSONL provenance record per fault verdict plus stage/iteration summaries — to this file (diff two with obsdiff)")
)

// Exit codes. Keep in sync with the package comment and README.
const (
	exitOK          = 0
	exitUsage       = 1
	exitLint        = 2
	exitConstraint  = 3
	exitInterrupted = 4
)

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(exitUsage)
}

func main() {
	flag.Parse()

	if *list {
		for _, n := range bench.Names {
			fmt.Println(n)
		}
		return
	}
	// Usage errors exit before any profiling starts.
	if !*table1 && !*table2 && !*trace {
		usageError("nothing to do: pass -table1, -table2 or -trace (see -help)")
	}
	if (*table2 || *trace) && !*all && *circuit == "" && *fromVlog == "" {
		usageError("pass -circuit <name>, -fromverilog <file> or -all")
	}
	if *fromVlog != "" && (*all || *table1 || *circuit != "") {
		usageError("-fromverilog analyzes one external netlist: drop -all, -table1 and -circuit")
	}
	if *resumePath != "" && (*all || *circuit == "") {
		usageError("-resume continues one sweep: pass the journal's -circuit, not -all")
	}

	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		switch {
		case errors.Is(err, resilience.ErrInterrupted):
			// Only advertise -resume when a checkpoint was actually written:
			// an interrupt before the sweep's first commit leaves no journal.
			if *journal != "" {
				if _, statErr := os.Stat(*journal); statErr == nil {
					fmt.Fprintf(os.Stderr, "interrupted: committed iterations are journaled in %s; continue with -resume %s\n", *journal, *journal)
				}
			}
			os.Exit(exitInterrupted)
		case errors.Is(err, lint.ErrFindings):
			os.Exit(exitLint)
		case errors.Is(err, place.ErrConstraint):
			os.Exit(exitConstraint)
		default:
			os.Exit(exitUsage)
		}
	}
}

// parseLintMode maps the -lint flag to a flow enforcement mode.
func parseLintMode(s string) (lint.Mode, error) {
	switch s {
	case "off":
		return lint.ModeOff, nil
	case "warn":
		return lint.ModeWarn, nil
	case "strict":
		return lint.ModeStrict, nil
	}
	return lint.ModeOff, fmt.Errorf("bad -lint mode %q (off, warn, strict)", s)
}

// parseDie maps the -die WxH flag to a fixed floorplan rectangle.
func parseDie(s string) (geom.Rect, error) {
	var w, h int
	if n, err := fmt.Sscanf(s, "%dx%d", &w, &h); n != 2 || err != nil || w <= 0 || h <= 0 {
		return geom.Rect{}, fmt.Errorf("bad -die %q (want WxH, e.g. 64x64)", s)
	}
	return geom.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, nil
}

// run holds all the real work so the profile writers, installed as defers,
// fire on every exit path — including error returns and signal-triggered
// cancellations, so a CPU profile is always stopped, exports are always
// flushed, and the debug server always shuts down gracefully.
func run() (err error) {
	lmode, err := parseLintMode(*lintMode)
	if err != nil {
		return err
	}
	var die geom.Rect
	if *dieSpec != "" {
		if die, err = parseDie(*dieSpec); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM cancel the run's context; every stage aborts at its
	// next deterministic boundary, the journal already holds the last
	// accepted iteration, and the deferred exporters below still run. A
	// second signal kills the process the hard way (NotifyContext resets
	// the handler once the context is done).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer f.Close()
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			if werr := writeHeapProfile(*memProf); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	// Observability is opt-in: any of the three flags creates the tracer.
	// Exports run as defers so a failing or interrupted run still dumps
	// what it traced; everything obs-related prints to stderr so table
	// output stays byte-identical with tracing on or off.
	var tracer *obs.Tracer
	if *traceFile != "" || *metrics != "" || *httpAddr != "" {
		tracer = obs.New()
		if *httpAddr != "" {
			srv, addr, serr := obs.ServeDebug(tracer, *httpAddr)
			if serr != nil {
				return fmt.Errorf("httpaddr: %w", serr)
			}
			fmt.Fprintf(os.Stderr, "obs: debug server on http://%s (/metrics /spans /debug/pprof)\n", addr)
			defer shutdownDebugServer(srv)
		}
		root := obs.Start(tracer, "dfmresyn/run")
		defer func() {
			root.End()
			if werr := writeObsExports(tracer); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	// The run flight recorder is independent of the tracer: -ledger alone
	// records provenance; with -httpaddr too, /ledger streams it live. The
	// digest goes to stderr so stdout tables stay identical with or without
	// the ledger.
	var ledger *obs.Ledger
	if *ledgerPath != "" {
		ledger, err = obs.CreateLedger(*ledgerPath)
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		tracer.AttachLedger(ledger)
		defer func() {
			if cerr := ledger.Close(); cerr != nil && err == nil {
				err = cerr
			}
			fmt.Fprintf(os.Stderr, "ledger: %d events, digest %s -> %s\n",
				ledger.Events(), ledger.Digest(), *ledgerPath)
		}()
	}

	env := flow.NewEnv()
	env.Seed = *seed
	env.ATPG.Seed = *seed
	env.Workers = *workers
	env.Obs = tracer
	env.Ctx = ctx
	env.StageTimeout = *deadline
	env.Lint = lmode
	env.Ledger = ledger
	if *chaosRate > 0 {
		env.ATPG.InjectPanic = chaos.Panics(*seed, *chaosRate)
	}

	if *table1 {
		fmt.Println("TABLE I. CLUSTERED UNDETECTABLE FAULTS")
		fmt.Println(report.TableIHeader())
		for _, name := range bench.TableINames {
			c := bench.MustBuild(name, env.Lib)
			d, err := env.Analyze(c, die)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println(report.TableIRow(name, d.Metrics()))
		}
		if !*table2 && !*trace {
			return nil
		}
	}

	// An external Verilog netlist takes the place of a built-in circuit:
	// the flow beyond this point is identical.
	var extC *netlist.Circuit
	if *fromVlog != "" {
		f, oerr := os.Open(*fromVlog)
		if oerr != nil {
			return fmt.Errorf("fromverilog: %w", oerr)
		}
		extC, err = verilog.ReadModule(f, env.Lib)
		f.Close()
		if err != nil {
			return fmt.Errorf("fromverilog %s: %w", *fromVlog, err)
		}
	}

	names := []string{*circuit}
	if *all {
		names = bench.Names
	}
	if extC != nil {
		names = []string{extC.Name}
	}

	if *table2 {
		fmt.Println("TABLE II. EXPERIMENTAL RESULTS")
		fmt.Println(report.TableIIHeader())
	}
	avg := &report.Averages{}
	for _, name := range names {
		spCircuit := obs.Start(tracer, "dfmresyn/circuit", obs.String("circuit", name))
		c := extC
		if c == nil {
			c = bench.MustBuild(name, env.Lib)
		}

		// Rtime baseline: one synthesis + physical design + test
		// generation pass is the original analysis itself.
		t0 := time.Now()
		orig, err := env.Analyze(c, die)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		baseline := time.Since(t0)

		opt := resyn.Options{MaxQ: *maxQ, Journal: *journal, StopAfterCommits: *stopAfter}
		t1 := time.Now()
		var r *resyn.Result
		if *resumePath != "" {
			r, err = resyn.Resume(env, orig, *resumePath, opt)
		} else {
			r, err = resyn.RunFrom(env, orig, opt)
		}
		if r != nil {
			// The resilience row is diagnostic (stderr): what the run
			// survived must never change what it prints (stdout).
			fmt.Fprintln(os.Stderr, report.ResilienceRow(name,
				orig.Result.Recovered+r.Recovered,
				len(orig.Result.Quarantined)+r.Quarantined,
				r.Cache.Corrupt, r.ReplayedCommits))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rtime := float64(time.Since(t1)) / float64(baseline)
		spCircuit.Annotate(obs.Float("rtime", rtime))
		spCircuit.End()
		if *table2 {
			fmt.Println(report.TableIIOrigRow(name, r.Orig.Metrics()))
			fmt.Println(report.TableIIResynRow(r, rtime))
			fmt.Println(report.PerfRow(name, par.Count(*workers),
				r.ATPGTime.Seconds(), r.Cache.HitRate(),
				int(r.Cache.Lookups), r.Cache.Entries, orig.Result.StaticProven+r.StaticProven,
				r.Final.Metrics().Aborted, orig.Result.SATEscalations+r.SATEscalations,
				orig.Result.SATConflicts+r.SATConflicts))
			// Provenance breakdown: the baseline analysis (cacheless) and
			// the cache-bypassed signoff — both pure functions of (circuit,
			// configuration), so these rows are stable across -workers,
			// -resume and chaos injection.
			fmt.Println(report.ProvRow(name, "orig", orig.Result.Tiers))
			fmt.Println(report.ProvRow(name, "final", r.Final.Result.Tiers))
			if ledger != nil {
				// Top-K slowest searches of the final classification —
				// timing, so stderr.
				for k, s := range r.Final.Result.Slowest {
					fmt.Fprintln(os.Stderr, report.SlowRow(name, k+1, s))
				}
			}
			avg.Add(r, rtime)
		}
		if *trace {
			fmt.Printf("---- %s iteration trace (Fig. 2 series)\n", name)
			fmt.Print(report.Fig2Trace(r))
		}
	}
	if *table2 && *all {
		fmt.Println(avg.Row())
	}
	return nil
}

// shutdownDebugServer drains the introspection server's in-flight requests
// with a bounded grace period before the process exits. Shutdown flips
// /readyz to draining and releases any /ledger?follow=1 streams, so the
// grace period bounds real request work, not an idle stream.
func shutdownDebugServer(srv *obs.DebugServer) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "obs: debug server shutdown: %v\n", err)
	}
}

// writeObsExports dumps the tracer's Chrome trace and metrics snapshot to
// the files requested by -tracefile / -metricsfile.
func writeObsExports(tracer *obs.Tracer) error {
	write := func(path string, fn func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(*traceFile, func(f *os.File) error { return tracer.WriteChromeTrace(f) }); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if err := write(*metrics, func(f *os.File) error { return tracer.WriteMetricsJSON(f) }); err != nil {
		return fmt.Errorf("metricsfile: %w", err)
	}
	return nil
}

// writeHeapProfile snapshots the final live heap into path. The explicit
// GC matters for accuracy: heap profiles are recorded at the previous
// collection, so without one the profile misses everything allocated since
// and over-reports freed memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
