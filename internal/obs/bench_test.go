package obs

import (
	"io"
	"testing"
)

// noopWork is the exact instrumentation shape the pipeline's hot paths use:
// a span with attrs, a counter lookup + increment, a histogram observation —
// all against a nil tracer. sink defeats dead-code elimination.
var sink *Span

func noopWork(tr *Tracer, c *Counter, h *Histogram) {
	sp := Start(tr, "atpg/podem", Int("faults", 7952), String("circuit", "wb_conmax"))
	c.Add(1)
	h.Observe(42)
	sp.Annotate(Int("kept", 110))
	sp.End()
	sink = sp
}

// TestNoopZeroAllocs pins the package's core contract: with a nil tracer,
// the full instrumentation pattern performs zero heap allocations, so
// unconditional instrumentation of the ATPG hot loop is free when -tracefile
// is not passed.
func TestNoopZeroAllocs(t *testing.T) {
	var tr *Tracer
	c := tr.Counter("atpg/podem_searches")
	h := tr.Histogram("atpg/podem_backtracks_per_search", 0, 1, 4)
	if avg := testing.AllocsPerRun(1000, func() { noopWork(tr, c, h) }); avg != 0 {
		t.Fatalf("no-op instrumentation allocates %.1f allocs/op, want 0", avg)
	}
}

func BenchmarkNoopTracer(b *testing.B) {
	var tr *Tracer
	c := tr.Counter("atpg/podem_searches")
	h := tr.Histogram("atpg/podem_backtracks_per_search", 0, 1, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		noopWork(tr, c, h)
	}
}

// BenchmarkActiveSpan measures the live-tracer cost of one span for
// comparison with the no-op path (not asserted, informational).
func BenchmarkActiveSpan(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start(tr, "bench/span", Int("i", i))
		sp.End()
	}
}

// BenchmarkLedgerVerdict measures the flight recorder's per-record cost: one
// verdict encoded, digested, written to io.Discard and kept in the tail ring.
func BenchmarkLedgerVerdict(b *testing.B) {
	l := NewLedger(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Verdict(LedgerRecord{Fault: i, Status: "undetectable", Tier: TierSAT, BT: 41, Conf: 2, Micros: 987})
	}
}
