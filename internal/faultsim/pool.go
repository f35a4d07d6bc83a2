package faultsim

import (
	"context"
	"math/bits"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/par"
	"dfmresyn/internal/resilience"
)

// Pool shards fault simulation over per-worker engines. An Engine's scratch
// buffers make it single-threaded; the Pool keeps one Engine per worker and
// hands each worker its own, while good-circuit Blocks — which are immutable
// once built — are shared by all workers. Every Pool method is deterministic:
// detection words land in per-fault slots and all status/credit bookkeeping
// runs sequentially in fault-list order, so results are byte-identical for
// any worker count.
type Pool struct {
	c       *netlist.Circuit
	workers int
	engines []*Engine

	// Simulation-volume counters (nil when uninstrumented; nil Counters
	// no-op, so the hot path pays one pointer check).
	cBlocks  *obs.Counter
	cDetects *obs.Counter

	// ctx, when bound, cancels DetectedBy's multi-block loop cooperatively
	// at block boundaries. nil never cancels.
	ctx context.Context
}

// Bind attaches a cancellation context to the pool. DetectedBy stops at the
// next 64-test block boundary once ctx is cancelled and returns its partial
// bookkeeping; callers that observe cancellation must treat that result as a
// consistent prefix, not a completed pass.
func (p *Pool) Bind(ctx context.Context) { p.ctx = ctx }

// Instrument routes the pool's simulation-volume telemetry — good-circuit
// blocks simulated and per-fault detection words computed — into the
// tracer's registry. A nil tracer leaves the pool uninstrumented.
func (p *Pool) Instrument(tr *obs.Tracer) {
	p.cBlocks = tr.Counter("faultsim/sim_blocks")
	p.cDetects = tr.Counter("faultsim/detect_words")
}

// NewPool builds a pool of the given width (0 = runtime.NumCPU()). Engines
// are created lazily: a sequential caller never pays for more than one.
func NewPool(c *netlist.Circuit, workers int) *Pool {
	w := par.Count(workers)
	return &Pool{c: c, workers: w, engines: make([]*Engine, w)}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Engine returns worker w's engine, creating it on first use. Each worker
// index is owned by one goroutine at a time, so lazy creation is race-free
// under the par.Each contract.
func (p *Pool) Engine(w int) *Engine {
	if p.engines[w] == nil {
		p.engines[w] = New(p.c)
	}
	return p.engines[w]
}

// SimBlock good-simulates up to 64 tests on worker 0's engine. The returned
// Block is immutable and may be read by every worker concurrently.
func (p *Pool) SimBlock(tests []Test) *Block {
	p.cBlocks.Inc()
	return p.Engine(0).SimBlock(tests)
}

// DetectsMany computes the detection word of every fault against the block,
// sharding the fault list over the workers. det must have len(faults) slots.
func (p *Pool) DetectsMany(faults []*fault.Fault, b *Block, det []logic.Word) {
	p.cDetects.Add(int64(len(faults)))
	par.Each(len(faults), p.workers, 16, func(w, i int) {
		det[i] = p.Engine(w).Detects(faults[i], b)
	})
}

// DetectedBy returns, for each test, how many faults not marked Undetectable
// it is the first to detect, simulating the tests in order with fault
// dropping; reverse-order test-set compaction keeps the tests it credits.
// The per-fault detection is sharded over the workers and credit assignment
// runs sequentially in fault-list order, so the per-test counts are
// independent of the worker count.
func (p *Pool) DetectedBy(l *fault.List, tests []Test) []int {
	per := make([]int, len(tests))
	var active []*fault.Fault
	for _, f := range l.Faults {
		if f.Status != fault.Undetectable {
			active = append(active, f)
		}
	}
	det := make([]logic.Word, len(active))
	for start := 0; start < len(tests) && len(active) > 0 && !resilience.Done(p.ctx); start += 64 {
		end := start + 64
		if end > len(tests) {
			end = len(tests)
		}
		b := p.SimBlock(tests[start:end])
		p.DetectsMany(active, b, det[:len(active)])
		next := active[:0]
		for i, f := range active {
			d := det[i]
			if d == 0 {
				next = append(next, f)
				continue
			}
			per[start+bits.TrailingZeros64(d)]++
		}
		active = next
	}
	return per
}
