package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfmresyn/internal/flow"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fixedMetrics are hand-picked values exercising every column, so the
// golden file pins the exact table layout without running the flow.
func fixedMetrics() flow.Metrics {
	return flow.Metrics{
		FIn: 1200, FEx: 345, UIn: 67, UEx: 8, GU: 42, Gmax: 9,
		F: 1545, U: 75, Aborted: 13, T: 210, Cov: 0.9514,
		Smax: 31, PctSmaxU: 41.33, PctSmaxAll: 2.01,
		SmaxI: 28, PctSmaxI: 90.32,
		Delay: 3.25, Power: 145.7, Area: 812.5,
	}
}

func TestTablesGolden(t *testing.T) {
	m := fixedMetrics()
	var b strings.Builder
	b.WriteString(TableIHeader() + "\n")
	b.WriteString(TableIRow("aes_core", m) + "\n")
	b.WriteString(TableIIHeader() + "\n")
	b.WriteString(TableIIOrigRow("aes_core", m) + "\n")
	b.WriteString(PerfRow("aes_core", 4, 12.345, 0.873, 1545, 1312, 407, 0, 53, 1284) + "\n")
	// Zero lookups (verdict cache disabled): the cache column must read
	// n/a, not a fake 0.0% hit rate. Likewise staticProven < 0 renders
	// "static off" — the screen disabled, not a zero-yield screen — and
	// satEscalations < 0 renders "sat off" next to the aborted tail the
	// disabled tier leaves behind.
	b.WriteString(PerfRow("aes_core", 4, 12.345, 0, 0, 0, -1, 13, -1, 0) + "\n")
	// A screen/tier that ran but had nothing to do still reports zeros.
	b.WriteString(PerfRow("aes_core", 4, 12.345, 0, 0, 0, 0, 0, 0, 0) + "\n")
	b.WriteString(ResilienceRow("aes_core", 12, 1, 3, 5) + "\n")
	// The quiet run: all-zero counters must still render every field, so
	// log scrapers get a stable schema.
	b.WriteString(ResilienceRow("empty", 0, 0, 0, 0) + "\n")
	var a Averages
	b.WriteString(a.Row() + "\n")
	checkGolden(t, "tables.golden", []byte(b.String()))
}
