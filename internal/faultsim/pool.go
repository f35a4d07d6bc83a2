package faultsim

import (
	"context"
	"math/bits"
	"slices"

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
// any worker count. A Pool is used by one goroutine at a time.
type Pool struct {
	c       *netlist.Circuit
	workers int
	engines []*Engine
	sites   siteScratch

	// Simulation-volume counters (nil when uninstrumented; nil Counters
	// no-op, so the hot path pays one pointer check).
	cBlocks  *obs.Counter
	cDetects *obs.Counter
	cSites   *obs.Counter

	// ctx, when bound, cancels DetectedBy's multi-block loop cooperatively
	// at block boundaries. nil never cancels.
	ctx context.Context
}

// siteScratch is DetectsMany's per-call state, reused across calls. slot[n]
// is valid only while stamp[n] equals epoch, so starting a call is one epoch
// increment rather than a clear of every net's slot.
type siteScratch struct {
	site  []int32      // per fault: the net its activation flips
	mask  []logic.Word // per fault: the patterns in which it flips it
	stamp []uint32     // per net
	slot  []int32      // per net: index into nets when stamp[n] == epoch
	epoch uint32
	nets  []int32      // distinct sites with a nonzero mask, first-seen order
	or    []logic.Word // per distinct site: the OR of its faults' masks
	obs   []logic.Word // per distinct site: PO difference of flipping or
}

// Bind attaches a cancellation context to the pool. DetectedBy stops at the
// next 64-test block boundary once ctx is cancelled and returns its partial
// bookkeeping; callers that observe cancellation must treat that result as a
// consistent prefix, not a completed pass.
func (p *Pool) Bind(ctx context.Context) { p.ctx = ctx }

// Instrument routes the pool's simulation-volume telemetry — good-circuit
// blocks simulated, per-fault detection words computed and distinct fault
// sites propagated — into the tracer's registry. A nil tracer leaves the
// pool uninstrumented.
func (p *Pool) Instrument(tr *obs.Tracer) {
	p.cBlocks = tr.Counter("faultsim/sim_blocks")
	p.cDetects = tr.Counter("faultsim/detect_words")
	p.cSites = tr.Counter("faultsim/observed_sites")
}

// NewPool builds a pool of the given width (0 = runtime.NumCPU()). Engines
// are created lazily: a sequential caller never pays for more than one.
func NewPool(c *netlist.Circuit, workers int) *Pool {
	w := par.Count(workers)
	return &Pool{c: c, workers: w, engines: make([]*Engine, w), sites: siteScratch{
		stamp: make([]uint32, len(c.Nets)),
		slot:  make([]int32, len(c.Nets)),
	}}
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

// DetectsMany computes the detection word of every fault against the block.
// det must have len(faults) slots. Faults that flip the same site share one
// propagation: each fault's activation mask is computed in parallel, the
// masks are ORed per site, every site with a nonzero mask is propagated once
// (in parallel over sites), and each fault's word is its mask ANDed with its
// site's PO difference.
func (p *Pool) DetectsMany(faults []*fault.Fault, b *Block, det []logic.Word) {
	p.cDetects.Add(int64(len(faults)))
	s := &p.sites
	if len(s.site) < len(faults) {
		s.site = make([]int32, len(faults))
		s.mask = make([]logic.Word, len(faults))
	}
	par.Each(len(faults), p.workers, 256, func(_, i int) {
		site, mask := activation(faults[i], b)
		if mask != 0 {
			s.site[i] = int32(site.ID)
		}
		s.mask[i] = mask
	})

	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.nets, s.or = s.nets[:0], s.or[:0]
	for i, m := range s.mask[:len(faults)] {
		if m == 0 {
			continue
		}
		n := s.site[i]
		if s.stamp[n] != s.epoch {
			s.stamp[n] = s.epoch
			s.slot[n] = int32(len(s.nets))
			s.nets = append(s.nets, n)
			s.or = append(s.or, 0)
		}
		s.or[s.slot[n]] |= m
	}
	p.cSites.Add(int64(len(s.nets)))

	s.obs = slices.Grow(s.obs[:0], len(s.nets))[:len(s.nets)]
	par.Each(len(s.nets), p.workers, 16, func(w, k int) {
		s.obs[k] = p.Engine(w).observe(p.c.Nets[s.nets[k]], s.or[k], b)
	})
	for i, m := range s.mask[:len(faults)] {
		if m != 0 {
			m &= s.obs[s.slot[s.site[i]]]
		}
		det[i] = m
	}
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
