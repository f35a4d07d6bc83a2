package atpg_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
)

// BenchmarkGenerate reruns every PODEM search a default analysis makes: the
// faults whose ledger verdict was decided by their own search (the podem
// tier, and the sat and sat-memo tiers its limit-exceeded searches escalate
// to), each through one reused Generator at the default backtrack limit and
// with the rng Run gives it. synth1k's 336 searches barely backtrack; tv80's
// 37 spend about 29,000 backtracks, most of them in the searches that reach
// the limit, so the tv80 case times the decision, implication and
// backtrace loop.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"synth1k", "tv80"} {
		b.Run(name, func(b *testing.B) { benchmarkGenerate(b, name) })
	}
}

func benchmarkGenerate(b *testing.B, name string) {
	env := flow.NewEnv()
	var buf bytes.Buffer
	env.Ledger = obs.NewLedger(&buf)
	c := bench.MustBuild(name, env.Lib)
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
	bt0 := gen.Backtracks()
	for i := 0; i < b.N; i++ {
		found := 0
		for _, f := range searched {
			if out, _ := gen.Generate(f, atpg.FaultRand(env.ATPG.Seed, f.ID)); out == atpg.FoundTest {
				found++
			}
		}
		foundSink = found
	}
	b.ReportMetric(float64(len(searched)), "searches/op")
	b.ReportMetric(float64(gen.Backtracks()-bt0)/float64(b.N), "backtracks/op")
}

// foundSink keeps the benchmarked search outcomes live.
var foundSink int
