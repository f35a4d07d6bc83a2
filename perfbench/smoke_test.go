package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// registry is the part of BENCHMARK.json the smoke test checks against.
type registry struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadRegistry(t *testing.T) registry {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var r registry
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkMetrics fails unless got holds exactly the registry's metrics, each
// with its registered unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, registry lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, registry says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// allWorkloads are the workloads the benchmark runs, registered or not.
var allWorkloads = []string{"analyze", "scale", "sweep", "serve"}

func TestRegistryWorkloadsExist(t *testing.T) {
	for _, w := range loadRegistry(t).Workloads {
		if !slices.Contains(allWorkloads, w.Name) {
			t.Errorf("registered workload %q is not one the benchmark runs", w.Name)
		}
	}
}

// TestSmoke runs every workload at smoke size: twice untraced, whose
// correctness digests must agree exactly and which emit the registry's
// end-to-end metrics, and once traced, which emits its per-layer metrics
// and whose per-layer self times must add up to the traced pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	reg := loadRegistry(t)
	for _, w := range allWorkloads {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 7, seconds: 1, smoke: true, outDir: t.TempDir(), commit: "test"}
			var digests []string
			for i := 0; i < 2; i++ {
				res, s, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run %d: correct=%v failed=%d attempted=%d: %v", i, res.Correct, res.Failed, res.Attempted, s.failures)
				}
				checkMetrics(t, res.Metrics, reg.EndToEnd)
				digests = append(digests, runDigest(s.records))
			}
			if digests[0] != digests[1] {
				t.Errorf("correctness digests differ across runs: %s vs %s", digests[0], digests[1])
			}
			cfg.trace = true
			res, s, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: %v", s.failures)
			}
			checkMetrics(t, res.Metrics, reg.PerLayer)
			if d := runDigest(s.records); d != digests[0] {
				t.Errorf("traced run digest %s, untraced %s", d, digests[0])
			}
			sum, wall := res.Metrics["trace.self_sum_s"].Value, median(s.tracedWalls)
			if wall <= 0 || sum < 0.95*wall || sum > 1.05*wall {
				t.Errorf("per-layer self times sum to %.4f s, traced pass took %.4f s", sum, wall)
			}
		})
	}
}
