package implic_test

import (
	"testing"

	"dfmresyn/internal/implic"
)

// BenchmarkStatic times the whole static stage of an ATPG run on synth1k:
// building the implication closure, then screening every fault of its DFM
// fault universe.
func BenchmarkStatic(b *testing.B) {
	c, list := dfmUniverse(b, "synth1k")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := implic.New(c)
		proven := 0
		for _, f := range list.Faults {
			if e.Undetectable(f) {
				proven++
			}
		}
		provenSink = proven
	}
	b.ReportMetric(float64(list.Len()), "faults/op")
}

// provenSink keeps the benchmarked verdicts live.
var provenSink int
