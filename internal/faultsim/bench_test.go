package faultsim_test

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/faultsim"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// BenchmarkDetects simulates one random 64-test block (two-pattern tests,
// so transition and dynamic cell-aware faults are launched) over every
// fault of synth1k's DFM fault universe on one engine, fault by fault.
func BenchmarkDetects(b *testing.B) {
	c, faults, tests := synth1kBlock(b)
	e := faultsim.New(c)
	blk := e.SimBlock(tests)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var det logic.Word
		for _, f := range faults {
			det |= e.Detects(f, blk)
		}
		detSink = det
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}

// BenchmarkDetectsMany simulates BenchmarkDetects' block and faults through
// a 1-worker Pool, which propagates each distinct fault site once.
func BenchmarkDetectsMany(b *testing.B) {
	c, faults, tests := synth1kBlock(b)
	p := faultsim.NewPool(c, 1)
	blk := p.SimBlock(tests)
	det := make([]logic.Word, len(faults))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DetectsMany(faults, blk, det)
		detSink = det[0]
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}

// synth1kBlock builds synth1k, its DFM fault universe and one random block
// of 64 two-pattern tests.
func synth1kBlock(b *testing.B) (*netlist.Circuit, []*fault.Fault, []faultsim.Test) {
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
	return c, l.Faults, tests
}

// detSink keeps the benchmarked detection words live.
var detSink logic.Word
