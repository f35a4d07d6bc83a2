// Command obsdiff compares two run flight-recorder ledgers (the JSONL files
// written by dfmresyn -ledger) and reports how the runs' fault verdicts
// diverged:
//
//   - verdict flips — a fault whose final status changed, a fault present in
//     one run but not the other, or a structural mismatch (different stage
//     sequence or iteration trace),
//   - tier migrations — same verdict, decided by a different engine tier,
//     or an iteration record whose tier map alone moved (informational: the
//     answer held, the path to it moved),
//   - timing regressions — a search that got slower than -regress times its
//     old cost (off by default, because wall time is the one
//     non-deterministic field in a ledger).
//
// Two runs under the same configuration produce byte-identical canonical
// ledgers, so obsdiff over them prints matching digests and exits 0 — which
// makes it usable as a regression gate in CI: record a golden ledger, diff
// every candidate run against it.
//
// Usage:
//
//	obsdiff [-regress F] [-minus N] [-top K] old.jsonl new.jsonl
//
// Exit codes: 0 equivalent (tier migrations allowed), 1 verdict flips or
// structural differences, 2 timing regressions only, 3 unreadable input or
// usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dfmresyn/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// stageBlock groups one stage record with the verdicts that follow it.
type stageBlock struct {
	rec      obs.LedgerRecord
	verdicts []obs.LedgerRecord
	byFault  map[int]obs.LedgerRecord
}

// label names a stage block in diff output: "analyze sparc_spu".
func (b stageBlock) label() string {
	if b.rec.T == "" {
		return "(unlabeled)"
	}
	return fmt.Sprintf("%s %s", b.rec.Stage, b.rec.Circuit)
}

// ledgerFile is one parsed ledger: its stage blocks, its iteration trace,
// and both digests — the one recomputed from the records and the one the
// writer recorded in the trailing summary (empty for a truncated file).
type ledgerFile struct {
	path     string
	stages   []stageBlock
	iters    []obs.LedgerRecord
	events   int
	digest   string
	recorded string
}

func loadLedger(path string) (*ledgerFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadLedger(f)
	if err != nil {
		return nil, err
	}
	lf := &ledgerFile{path: path}
	lf.digest, err = obs.LedgerDigest(recs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		switch rec.T {
		case "stage":
			lf.stages = append(lf.stages, stageBlock{rec: rec, byFault: map[int]obs.LedgerRecord{}})
			lf.events++
		case "verdict":
			// The writer emits a stage before its verdicts; tolerate a
			// hand-edited file that doesn't with an unlabeled block.
			if len(lf.stages) == 0 {
				lf.stages = append(lf.stages, stageBlock{byFault: map[int]obs.LedgerRecord{}})
			}
			b := &lf.stages[len(lf.stages)-1]
			b.verdicts = append(b.verdicts, rec)
			b.byFault[rec.Fault] = rec
			lf.events++
		case "iter":
			lf.iters = append(lf.iters, rec)
			lf.events++
		case "summary":
			lf.recorded = rec.Digest
		}
	}
	return lf, nil
}

// differ accumulates and prints the diff, keeping only the first -top
// detail lines per category so a wholesale divergence stays readable.
type differ struct {
	w                          io.Writer
	top                        int
	flips, migrations, regress int
	lines                      map[string]int // printed per category
}

func (d *differ) report(category string, n *int, format string, args ...any) {
	*n++
	if d.lines[category] < d.top {
		fmt.Fprintf(d.w, format+"\n", args...)
		d.lines[category]++
	} else if d.lines[category] == d.top {
		fmt.Fprintf(d.w, "  ... (further %s suppressed; raise -top)\n", category)
		d.lines[category]++
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	regress := fs.Float64("regress", 0,
		"flag searches slower than this factor times their old cost (0 disables the timing check)")
	minUs := fs.Int64("minus", 1000,
		"ignore timing changes where both sides are under this many microseconds")
	top := fs.Int("top", 10, "detail lines to print per difference category")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [-regress F] [-minus N] [-top K] old.jsonl new.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 3
	}

	var files [2]*ledgerFile
	for i, path := range fs.Args() {
		lf, err := loadLedger(path)
		if err != nil {
			fmt.Fprintf(stderr, "obsdiff: %s: %v\n", path, err)
			return 3
		}
		files[i] = lf
	}
	old, new := files[0], files[1]
	for _, lf := range files {
		fmt.Fprintf(stdout, "%s: %d events, digest %s\n", lf.path, lf.events, lf.digest)
		if lf.recorded != "" && lf.recorded != lf.digest {
			fmt.Fprintf(stderr, "obsdiff: %s: recorded digest %s does not match its records — file modified or truncated\n",
				lf.path, lf.recorded)
		}
	}
	if old.digest == new.digest && *regress <= 0 {
		fmt.Fprintln(stdout, "ledgers are equivalent")
		return 0
	}

	d := &differ{w: stdout, top: *top, lines: map[string]int{}}
	diffStages(d, old, new, *regress, *minUs)
	diffIters(d, old, new)

	fmt.Fprintf(stdout, "%d verdict flips, %d tier migrations, %d timing regressions\n",
		d.flips, d.migrations, d.regress)
	switch {
	case d.flips > 0:
		return 1
	case d.regress > 0:
		return 2
	}
	fmt.Fprintln(stdout, "ledgers are equivalent")
	return 0
}

// diffStages pairs stage blocks by order and compares their verdicts by
// fault ID. Verdicts are a stage-local total function of the fault list, so
// a fault on one side only is a flip, not a soft difference.
func diffStages(d *differ, old, new *ledgerFile, regress float64, minUs int64) {
	n := len(old.stages)
	if len(new.stages) != n {
		d.report("flips", &d.flips, "stage count differs: %d -> %d", n, len(new.stages))
		if len(new.stages) < n {
			n = len(new.stages)
		}
	}
	for s := 0; s < n; s++ {
		ob, nb := old.stages[s], new.stages[s]
		if ob.rec.Stage != nb.rec.Stage || ob.rec.Circuit != nb.rec.Circuit {
			d.report("flips", &d.flips, "stage %d: %s -> %s", s+1, ob.label(), nb.label())
			continue
		}
		for _, ov := range ob.verdicts {
			nv, ok := nb.byFault[ov.Fault]
			if !ok {
				d.report("flips", &d.flips, "stage %d (%s): fault %d has no verdict in %s",
					s+1, ob.label(), ov.Fault, new.path)
				continue
			}
			if ov.Status != nv.Status {
				d.report("flips", &d.flips, "stage %d (%s): fault %d flipped %s -> %s",
					s+1, ob.label(), ov.Fault, ov.Status, nv.Status)
				continue
			}
			if ov.Tier != nv.Tier {
				d.report("migrations", &d.migrations, "stage %d (%s): fault %d migrated %s -> %s (status %s)",
					s+1, ob.label(), ov.Fault, ov.Tier, nv.Tier, ov.Status)
			}
			if regress > 0 && (ov.Micros >= minUs || nv.Micros >= minUs) &&
				float64(nv.Micros) > regress*float64(ov.Micros) {
				d.report("regressions", &d.regress, "stage %d (%s): fault %d search cost %dus -> %dus",
					s+1, ob.label(), ov.Fault, ov.Micros, nv.Micros)
			}
		}
		for _, nv := range nb.verdicts {
			if _, ok := ob.byFault[nv.Fault]; !ok {
				d.report("flips", &d.flips, "stage %d (%s): fault %d has no verdict in %s",
					s+1, ob.label(), nv.Fault, old.path)
			}
		}
		if regress > 0 && (ob.rec.Micros >= minUs || nb.rec.Micros >= minUs) &&
			float64(nb.rec.Micros) > regress*float64(ob.rec.Micros) {
			d.report("regressions", &d.regress, "stage %d (%s): stage wall time %dus -> %dus",
				s+1, ob.label(), ob.rec.Micros, nb.rec.Micros)
		}
	}
}

// diffIters compares the resynthesis iteration traces record by record. A
// diverged trace means the sweeps committed different resyntheses — a flip,
// even when every per-fault verdict that was recorded happens to agree. A
// record that differs only in its tier map committed the same resynthesis
// with verdicts decided by other tiers: a migration.
func diffIters(d *differ, old, new *ledgerFile) {
	n := len(old.iters)
	if len(new.iters) != n {
		d.report("flips", &d.flips, "iteration count differs: %d -> %d", n, len(new.iters))
		if len(new.iters) < n {
			n = len(new.iters)
		}
	}
	for i := 0; i < n; i++ {
		oc, nc, same := canonicalPair(old.iters[i], new.iters[i])
		if same {
			continue
		}
		ot, nt := old.iters[i], new.iters[i]
		ot.Tiers, nt.Tiers = obs.TierCounts{}, obs.TierCounts{}
		if _, _, sameBut := canonicalPair(ot, nt); sameBut {
			d.report("migrations", &d.migrations, "iteration %d migrated tiers: %s -> %s",
				i+1, trim(oc), trim(nc))
			continue
		}
		d.report("flips", &d.flips, "iteration %d differs: %s -> %s",
			i+1, trim(oc), trim(nc))
	}
}

// canonicalPair renders two records canonically and reports whether they
// are equal; a record that fails to encode never equals anything.
func canonicalPair(a, b obs.LedgerRecord) ([]byte, []byte, bool) {
	ac, err1 := obs.CanonicalLedger([]obs.LedgerRecord{a})
	bc, err2 := obs.CanonicalLedger([]obs.LedgerRecord{b})
	return ac, bc, err1 == nil && err2 == nil && string(ac) == string(bc)
}

func trim(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	return string(b)
}
