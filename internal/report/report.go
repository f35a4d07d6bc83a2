// Package report formats the paper's tables (Table I, Table II) and the
// Fig. 2 iteration trace from analyzed designs, for the command-line tools
// and the benchmark harness.
package report

import (
	"fmt"
	"strings"

	"dfmresyn/internal/flow"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resyn"
)

// TableIHeader returns the header of Table I (clustered undetectable
// faults).
func TableIHeader() string {
	return fmt.Sprintf("%-12s %8s %8s %7s %7s %6s %6s %7s %9s",
		"Circuit", "F_In", "F_Ex", "U_In", "U_Ex", "G_U", "Gmax", "Smax", "%Smax_U")
}

// TableIRow formats one Table I row.
func TableIRow(name string, m flow.Metrics) string {
	return fmt.Sprintf("%-12s %8d %8d %7d %7d %6d %6d %7d %8.2f%%",
		name, m.FIn, m.FEx, m.UIn, m.UEx, m.GU, m.Gmax, m.Smax, m.PctSmaxU)
}

// TableIIHeader returns the header of Table II (experimental results). Abt
// is the count of aborted (unproven) faults — faults Cov silently counts as
// covered; the SAT escalation tier settles every search that exhausts the
// backtrack budget, so it reads 0 unless a fault was quarantined.
func TableIIHeader() string {
	return fmt.Sprintf("%-12s %-5s %8s %6s %5s %8s %5s %6s %10s %7s %9s %8s %8s %6s",
		"Circuit", "MaxInc", "F", "U", "Abt", "Cov", "T", "Smax", "%Smax_all", "Smax_I", "%Smax_I", "Delay", "Power", "Rtime")
}

// TableIIOrigRow formats the "orig" row for a circuit.
func TableIIOrigRow(name string, m flow.Metrics) string {
	return fmt.Sprintf("%-12s %-5s %8d %6d %5d %7.2f%% %5d %6d %9.2f%% %7d %8.2f%% %7s %8s %6d",
		name, "orig", m.F, m.U, m.Aborted, 100*m.Cov, m.T, m.Smax, m.PctSmaxAll, m.SmaxI, m.PctSmaxI, "100%", "100%", 1)
}

// TableIIResynRow formats the resynthesized row: delay/power relative to
// the original, Rtime relative to one synthesis+PD+ATPG pass.
func TableIIResynRow(r *resyn.Result, rtime float64) string {
	mo := r.Orig.Metrics()
	mf := r.Final.Metrics()
	q := r.BestQ
	inc := "none"
	if q >= 0 {
		inc = fmt.Sprintf("%d%%", q)
	}
	return fmt.Sprintf("%-12s %-5s %8d %6d %5d %7.2f%% %5d %6d %9.2f%% %7d %8.2f%% %7.2f%% %7.2f%% %6.2f",
		"", inc, mf.F, mf.U, mf.Aborted, 100*mf.Cov, mf.T, mf.Smax, mf.PctSmaxAll, mf.SmaxI, mf.PctSmaxI,
		100*mf.Delay/mo.Delay, 100*mf.Power/mo.Power, rtime)
}

// PerfRow formats the engine-performance line printed under a circuit's
// Table II rows: the worker count, the resynthesis sweep's cumulative ATPG
// wall time, the verdict-cache behaviour across the q sweep (hit rate
// over lookups, and the entries the sweep populated), and the static
// implication screen's yield — faults proven undetectable with zero PODEM
// searches, which is exactly the number of complete searches (each with
// its backtrack tail) the screen avoided. With zero lookups — the verdict
// cache disabled or never consulted — the cache column reads "n/a"
// instead of a misleading 0.0% hit rate. The aborted count and the SAT
// escalation tier's work (escalations and solver conflicts) round out the
// row: together they show whether hard faults were left unproven or
// escalated to a definitive verdict. Plain parameters keep the formatting
// decoupled from the cache and engine implementations.
func PerfRow(name string, workers int, atpgSeconds, hitRate float64, lookups, entries, staticProven,
	aborted, satEscalations int, satConflicts int64) string {
	cache := "cache   n/a"
	if lookups > 0 {
		cache = fmt.Sprintf("cache %5.1f%% of %d lookups, %d entries", 100*hitRate, lookups, entries)
	}
	return fmt.Sprintf("%-12s perf  workers=%-3d atpg=%8.3fs  %s  static %d proved/0-search  aborted=%d  sat %d esc/%d conf",
		name, workers, atpgSeconds, cache, staticProven, aborted, satEscalations, satConflicts)
}

// ResilienceRow renders what a run survived: worker panics recovered by
// the retry ladder, faults quarantined after a second panic, cache entries
// dropped by the integrity check, and journal commits replayed by a resume.
// The row is diagnostic — it goes to stderr in the CLI so that a run under
// chaos injection keeps byte-identical stdout tables.
func ResilienceRow(name string, recovered, quarantined int, corrupt uint64, replayed int) string {
	return fmt.Sprintf("%-12s resil recovered=%-4d quarantined=%-4d cache_dropped=%-4d replayed=%d",
		name, recovered, quarantined, corrupt, replayed)
}

// ProvRow renders a provenance breakdown next to a circuit's Table II rows:
// which engine tier decided the verdicts of one analysis (label "orig" for
// the baseline analysis, "final" for the cache-bypassed signoff). Both
// breakdowns are pure functions of (circuit, configuration) — the orig
// analysis runs cacheless and the signoff bypasses the cache — so prov rows
// are identical across worker counts, resumes and chaos injection; they
// shift only when a tier is reconfigured.
func ProvRow(name, which string, t obs.TierCounts) string {
	return fmt.Sprintf("%-12s prov  %-5s cache=%-4d implic=%-4d collateral=%-4d podem=%-4d sat=%-4d sat-memo=%d",
		name, which, t.Cache, t.Implic, t.Collateral, t.Podem, t.SAT, t.SATMemo)
}

// SlowRow renders one of a run's costliest searches (the ledger's top-K
// slow-search block). Wall micros vary run to run, so the row is diagnostic
// and belongs on stderr, like ResilienceRow.
func SlowRow(name string, rank int, s obs.SlowSearch) string {
	return fmt.Sprintf("%-12s slow  #%d fault=%-6d tier=%-10s backtracks=%-7d us=%d",
		name, rank, s.Fault, s.Tier, s.Backtracks, s.Micros)
}

// Fig2Trace renders the per-iteration cluster evolution (the series behind
// Fig. 2): for each accepted iteration, the phase, the excluded cell, and
// the resulting U and S_max.
func Fig2Trace(r *resyn.Result) string {
	var b strings.Builder
	mo := r.Orig.Metrics()
	fmt.Fprintf(&b, "iter  0: q=- phase=- excl=%-9s U=%-6d Smax=%-6d (original)\n", "-", mo.U, mo.Smax)
	for i, tr := range r.Trace {
		via := ""
		if tr.ViaBack {
			via = " (via backtracking)"
		}
		fmt.Fprintf(&b, "iter %2d: q=%d phase=%d excl=%-9s U=%-6d Smax=%-6d%s\n",
			i+1, tr.Q, tr.Phase, tr.Excluded, tr.U, tr.Smax, via)
	}
	return b.String()
}

// Averages accumulates Table II columns across circuits, mirroring the
// paper's "average" row.
type Averages struct {
	n                                  int
	f, u, abt, cov, t, smax, pctAll    float64
	smaxI                              float64
	pctI, delayRel, powerRel, rtimeRel float64
}

// Add accumulates one circuit's orig/final pair.
func (a *Averages) Add(r *resyn.Result, rtime float64) {
	mo := r.Orig.Metrics()
	mf := r.Final.Metrics()
	a.n++
	a.f += float64(mf.F)
	a.u += float64(mf.U)
	a.abt += float64(mf.Aborted)
	a.cov += mf.Cov
	a.t += float64(mf.T)
	a.smax += float64(mf.Smax)
	a.pctAll += mf.PctSmaxAll
	a.smaxI += float64(mf.SmaxI)
	a.pctI += mf.PctSmaxI
	a.delayRel += mf.Delay / mo.Delay
	a.powerRel += mf.Power / mo.Power
	a.rtimeRel += rtime
}

// Row renders the average row.
func (a *Averages) Row() string {
	if a.n == 0 {
		return "average      (no circuits)"
	}
	n := float64(a.n)
	return fmt.Sprintf("%-12s %-5s %8.1f %6.1f %5.1f %7.2f%% %5.1f %6.1f %9.2f%% %7.1f %8.2f%% %7.2f%% %7.2f%% %6.2f",
		"average", "resyn", a.f/n, a.u/n, a.abt/n, 100*a.cov/n, a.t/n, a.smax/n, a.pctAll/n, a.smaxI/n, a.pctI/n,
		100*a.delayRel/n, 100*a.powerRel/n, a.rtimeRel/n)
}
