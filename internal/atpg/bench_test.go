package atpg_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
)

// BenchmarkGenerate reruns every PODEM search a default analysis of synth1k
// makes: the faults whose ledger verdict was decided by their own search
// (the podem tier, and the sat and sat-memo tiers its limit-exceeded
// searches escalate to), each through one reused Generator at the default
// backtrack limit.
func BenchmarkGenerate(b *testing.B) {
	env := flow.NewEnv()
	var buf bytes.Buffer
	env.Ledger = obs.NewLedger(&buf)
	c := bench.MustBuild("synth1k", env.Lib)
	d, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Ledger.Close(); err != nil {
		b.Fatal(err)
	}
	byID := make(map[int]*fault.Fault, d.Faults.Len())
	for _, f := range d.Faults.Faults {
		byID[f.ID] = f
	}
	var searched []*fault.Fault
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			T     string   `json:"t"`
			Fault int      `json:"fault"`
			Tier  obs.Tier `json:"tier"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			b.Fatal(err)
		}
		if rec.T != "verdict" {
			continue
		}
		switch rec.Tier {
		case obs.TierPodem, obs.TierSAT, obs.TierSATMemo:
			searched = append(searched, byID[rec.Fault])
		}
	}
	if len(searched) == 0 {
		b.Fatal("the analysis ran no PODEM search")
	}
	gen := atpg.NewGenerator(c, c.Levelize(), c.Levels(), env.ATPG.BacktrackLimit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := 0
		for _, f := range searched {
			if out, _ := gen.Generate(f, rand.New(rand.NewSource(int64(f.ID)))); out == atpg.FoundTest {
				found++
			}
		}
		foundSink = found
	}
	b.ReportMetric(float64(len(searched)), "searches/op")
}

// foundSink keeps the benchmarked search outcomes live.
var foundSink int
