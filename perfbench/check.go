package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dfmresyn/internal/equiv"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/resyn"
)

// record is the tier-blind outcome of one operation: the Table I/II columns
// except Rtime and T, plus a digest of every fault's final status. Which
// engine tier decided a verdict (PODEM, SAT, cache, implication screen) and
// which witness vectors it produced are deliberately absent — T counts
// witness vectors — so a change that migrates verdicts between tiers keeps
// every record, while a change that flips a verdict does not.
type record map[string]string

// statusDigest hashes every fault's ID and final status, in fault-list
// order.
func statusDigest(l *fault.List) string {
	h := sha256.New()
	for _, f := range l.Faults {
		fmt.Fprintf(h, "%d:%s\n", f.ID, f.Status)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// designRecord is the Table I/II row of one analyzed design.
func designRecord(prefix string, d *flow.Design, rec record) {
	m := d.Metrics()
	put := func(k string, v any) { rec[prefix+k] = fmt.Sprint(v) }
	put("F", m.F)
	put("FIn", m.FIn)
	put("FEx", m.FEx)
	put("U", m.U)
	put("UIn", m.UIn)
	put("UEx", m.UEx)
	put("GU", m.GU)
	put("Gmax", m.Gmax)
	put("Smax", m.Smax)
	put("SmaxI", m.SmaxI)
	rec[prefix+"Cov"] = fmt.Sprintf("%.6f", m.Cov)
	rec[prefix+"Delay"] = fmt.Sprintf("%.6g", m.Delay)
	rec[prefix+"Power"] = fmt.Sprintf("%.6g", m.Power)
	rec[prefix+"Area"] = fmt.Sprintf("%.6g", m.Area)
	rec[prefix+"status"] = statusDigest(d.Faults)
}

// checkDesign is the per-analysis correctness gate: no fault is left
// Aborted, Detected + Undetectable covers the whole universe, and
// re-simulating the reported test set with a fresh fault simulator detects
// every Detected fault.
func checkDesign(d *flow.Design) error {
	r := d.Result
	if r.Aborted != 0 || len(r.Quarantined) != 0 {
		return fmt.Errorf("%s: %d aborted, %d quarantined faults", d.C.Name, r.Aborted, len(r.Quarantined))
	}
	if n := d.Faults.Len(); r.Detected+r.Undetectable != n {
		return fmt.Errorf("%s: D %d + U %d != F %d", d.C.Name, r.Detected, r.Undetectable, n)
	}
	var missed []*fault.Fault // Detected, not yet re-detected
	for _, f := range d.Faults.Faults {
		if f.Status == fault.Detected {
			missed = append(missed, f)
		}
	}
	pool := faultsim.NewPool(d.C, workers)
	det := make([]logic.Word, len(missed))
	for start := 0; start < len(r.Tests) && len(missed) > 0; start += 64 {
		b := pool.SimBlock(r.Tests[start:min(start+64, len(r.Tests))])
		pool.DetectsMany(missed, b, det[:len(missed)])
		next := missed[:0]
		for i, f := range missed {
			if det[i] == 0 {
				next = append(next, f)
			}
		}
		missed = next
	}
	if len(missed) > 0 {
		return fmt.Errorf("%s: %d detected faults, first %s, are not detected by the test set", d.C.Name, len(missed), missed[0])
	}
	return nil
}

// checkSweep gates one Table II row: both end designs pass checkDesign, the
// resynthesized circuit is functionally equivalent to the original, and it
// meets the die, delay and power limits at its BestQ.
func checkSweep(orig *flow.Design, res *resyn.Result, seed int64) error {
	fin := res.Final
	if err := errors.Join(checkDesign(orig), checkDesign(fin)); err != nil {
		return err
	}
	if res.EquivFailures != 0 || res.LintFailures != 0 {
		return fmt.Errorf("%s: %d equivalence and %d lint failures during the sweep", orig.C.Name, res.EquivFailures, res.LintFailures)
	}
	eq, err := equiv.Check(orig.C, fin.C, 8, seed)
	if err != nil {
		return fmt.Errorf("%s: equivalence check: %w", orig.C.Name, err)
	}
	if !eq.Equivalent {
		return fmt.Errorf("%s: resynthesized circuit differs from the original at PO %d", orig.C.Name, eq.POIndex)
	}
	if fin.Die != orig.Die {
		return fmt.Errorf("%s: die %v differs from the original %v", orig.C.Name, fin.Die, orig.Die)
	}
	if err := fin.P.VerifyLegal(); err != nil {
		return fmt.Errorf("%s: %w", orig.C.Name, err)
	}
	if res.BestQ < 0 {
		if len(res.Trace) != 0 || fin.C != orig.C {
			return fmt.Errorf("%s: BestQ -1 with %d commits", orig.C.Name, len(res.Trace))
		}
		return nil
	}
	slack := 1 + float64(res.BestQ)/100
	if fin.Timing.CriticalDelay > orig.Timing.CriticalDelay*slack || fin.Power.Total > orig.Power.Total*slack {
		return fmt.Errorf("%s: delay %.4g / power %.4g exceed %d%% over %.4g / %.4g", orig.C.Name,
			fin.Timing.CriticalDelay, fin.Power.Total, res.BestQ, orig.Timing.CriticalDelay, orig.Power.Total)
	}
	return nil
}

// sweepRecord is the tier-blind Table II row of one sweep.
func sweepRecord(orig *flow.Design, res *resyn.Result) record {
	rec := record{}
	designRecord("orig.", orig, rec)
	designRecord("final.", res.Final, rec)
	rec["BestQ"] = fmt.Sprint(res.BestQ)
	rec["Commits"] = fmt.Sprint(len(res.Trace))
	return rec
}

// runDigest hashes every record of a run, in key order: two runs of the same
// seed and size must produce the same digest.
func runDigest(recs map[string]record) string {
	h := sha256.New()
	for _, k := range sortedKeys(recs) {
		fmt.Fprintf(h, "%s\n", k)
		r := recs[k]
		for _, c := range sortedKeys(r) {
			fmt.Fprintf(h, "  %s=%s\n", c, r[c])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// expectedPath is the workload's expected-records file inside dir.
func expectedPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func loadExpected(dir, workload string) (map[string]record, error) {
	b, err := os.ReadFile(expectedPath(dir, workload))
	if errors.Is(err, os.ErrNotExist) {
		return map[string]record{}, nil
	}
	if err != nil {
		return nil, err
	}
	exp := map[string]record{}
	if err := json.Unmarshal(b, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(dir, workload), err)
	}
	return exp, nil
}

// compareExpected checks every operation whose key the expected file
// records (the recorded seeds) and returns one message per mismatch.
func compareExpected(exp map[string]record, got map[string]record) []string {
	var bad []string
	for _, k := range sortedKeys(got) {
		want, ok := exp[k]
		if !ok {
			continue
		}
		var diffs []string
		for _, c := range sortedKeys(want) {
			if got[k][c] != want[c] {
				diffs = append(diffs, fmt.Sprintf("%s=%s want %s", c, got[k][c], want[c]))
			}
		}
		if len(diffs) > 0 {
			bad = append(bad, k+": "+strings.Join(diffs, ", "))
		}
	}
	return bad
}

// recordExpected merges this run's records into the expected file.
func recordExpected(dir, workload string, got map[string]record) error {
	exp, err := loadExpected(dir, workload)
	if err != nil {
		return err
	}
	for k, r := range got {
		exp[k] = r
	}
	b, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(dir, workload), append(b, '\n'), 0o644)
}
