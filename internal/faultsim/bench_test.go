package faultsim_test

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/logic"
)

// BenchmarkDetects simulates one random 64-test block (two-pattern tests,
// so transition and dynamic cell-aware faults are launched) over every
// fault of synth1k's DFM fault universe on one engine.
func BenchmarkDetects(b *testing.B) {
	env := flow.NewEnv()
	c := bench.MustBuild("synth1k", env.Lib)
	d, err := env.PhysicalOnly(c, geom.Rect{})
	if err != nil {
		b.Fatal(err)
	}
	l, _, _ := dfm.BuildFaultsStats(c, d.Lay, env.Prof)
	rng := rand.New(rand.NewSource(1))
	vec := func() []uint8 {
		v := make([]uint8, len(c.PIs))
		for i := range v {
			v[i] = uint8(rng.Intn(2))
		}
		return v
	}
	tests := make([]faultsim.Test, 64)
	for i := range tests {
		tests[i] = faultsim.Test{Init: vec(), Vec: vec()}
	}
	e := faultsim.New(c)
	blk := e.SimBlock(tests)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var det logic.Word
		for _, f := range l.Faults {
			det |= e.Detects(f, blk)
		}
		detSink = det
	}
	b.ReportMetric(float64(len(l.Faults)), "faults/op")
}

// detSink keeps the benchmarked detection words live.
var detSink logic.Word
