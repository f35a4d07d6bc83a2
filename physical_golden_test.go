// Golden pin for the physical re-analysis path. Every accepted resynthesis
// candidate is re-placed (ECO placement), re-routed and DFM-checked by
// flow.AnalyzeIncremental; a short q-sweep over two circuits exercises that
// path dozens of times. The sweep's Table II resyn row, its Fig. 2 trace and
// the canonical ledger digest (every fault verdict of every stage) are
// recorded in testdata/ and must not move.
package dfmresyn

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/report"
	"dfmresyn/internal/resyn"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestPhysicalSweepGolden runs the q-sweep with MaxQ 5 and two iterations
// per phase, with a ledger attached from the original analysis on, and
// compares the rendered row, trace and digest with the recorded golden.
func TestPhysicalSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("resynthesis sweep is slow under -short")
	}
	for _, name := range []string{"sparc_spu", "sparc_tlu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env := flow.NewEnv()
			var buf bytes.Buffer
			ledger := obs.NewLedger(&buf)
			env.Ledger = ledger
			c := bench.MustBuild(name, env.Lib)
			orig, err := env.Analyze(c, geom.Rect{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := resyn.RunFrom(env, orig, resyn.Options{MaxQ: 5, MaxItersPhase: 2})
			if err != nil {
				t.Fatal(err)
			}
			digest := ledger.Digest()
			if err := ledger.Close(); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s\n%sledger %s\n", report.TableIIResynRow(r, 1.0), report.Fig2Trace(r), digest)

			path := filepath.Join("testdata", "physical_sweep_"+name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestPhysicalSweepGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("sweep differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
