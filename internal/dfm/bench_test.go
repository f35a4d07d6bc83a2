package dfm

import (
	"testing"

	"dfmresyn/internal/fault"
)

var benchSink *fault.List

// BenchmarkBuildFaults measures one full fault-universe build; the shared
// density accumulator shows up in allocs/op.
func BenchmarkBuildFaults(b *testing.B) {
	c, lay := buildTestLayout(b, 5, 260)
	prof := ProfileLibrary(lib)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = BuildFaults(c, lay, prof)
	}
}
