// Command perfbench is the repository's benchmark. It runs one named
// workload of the dfmresyn pipeline, gates every operation's output for
// correctness, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer budget — ending with one JSON line. BENCHMARK.json at the
// repository root is its registry; METRICS.md next to this file records why
// each workload exists, which end-to-end metric each layer should move, and
// how the legacy BENCH_flow.json columns map onto these metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"dfmresyn/internal/flow"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/power"
	"dfmresyn/internal/sta"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks every workload's inputs for the benchmark's own tests.
	smoke bool
	// outDir receives run artifacts (the Chrome trace) and the serve
	// workload's data directories.
	outDir string
	// expectedDir holds the expected records of the recorded seeds;
	// record merges this run's records into it instead of comparing.
	expectedDir string
	record      bool
	commit      string
}

// endToEnd lists the end-to-end metrics a --trace 0 run prints. Only the
// gated ones go on the result line and into BENCHMARK.json: the operation
// percentiles are printed but not gated, because every workload mixes
// circuits whose costs differ tenfold and a percentile that falls between
// two of them moves by a third from seed to seed. A job is one operation of
// any workload; fail_ratio is the result line's failed over attempted.
var endToEnd = []struct {
	name, unit string
	gated      bool
}{
	{"wall_s", "s", true},
	{"op_p50_s", "s", false},
	{"op_tail_s", "s", false},
	{"jobs_per_s", "1/s", true},
	{"rss_p90_mb", "MiB", true},
	{"peak_rss_mb", "MiB", false},
	{"setup_s", "s", true},
}

func perLayerUnit(name string) string {
	switch {
	case name == "atpg.static_alloc_mb":
		return "MiB"
	case isRatio(name) || name == "trace_overhead":
		return "ratio"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// perLayer lists every per-layer metric in output order.
func perLayer() []string {
	names := append([]string(nil), selfMetrics...)
	names = append(names,
		"resyn.uint_screen_s", "resyn.uint_screens", "resyn.backtrack_s", "resyn.signoff_s",
		"resyn.sweep_s", "resyn.orig_analyze_s", "atpg.static_alloc_mb", "dfm.faults",
		"fcache.entries", "verilog.read_s", "vstore.prewarm_s", "vstore.merge_s", "vstore.entries",
		"vstore.lookups", "vstore.warm_hits", "serve.prewarmed_entries", "serve.store_appended",
		"trace.self_sum_s", "trace_overhead")
	for _, c := range counterMetrics {
		names = append(names, c.metric)
	}
	for _, r := range ratioMetrics {
		names = append(names, r.metric)
	}
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary accumulates one run.
type summary struct {
	passes    int
	setup     []float64 // every set-up, seconds
	walls     []float64 // untraced pass wall times
	lat       []float64 // untraced operation latencies
	attempted int
	failures  []string
	records   map[string]record
	// Traced runs: per-pass layer metrics, traced pass walls, and the
	// traced-over-untraced wall ratio of each pair of passes.
	layers      []map[string]float64
	tracedWalls []float64
	overhead    []float64
	lastTrace   *obs.Tracer
	// peakRSS and rssP90 hold each untraced pass's peak resident set and
	// the 90th percentile of its sampled resident set, MiB.
	peakRSS, rssP90 []float64
}

func (s *summary) fail(key string, err error) {
	s.failures = append(s.failures, fmt.Sprintf("%s: %v", key, err))
}

// minSetupSamples is the fewest set-ups a run times; runs with fewer passes
// set up (and discard) extra copies so that setup_s is always a median. Each
// set-up starts from a collected heap (see settle), so it does not pay for
// the garbage of the pass before it.
const minSetupSamples = 9

// minPasses is the fewest passes a run measures, so that its pass-level
// figures are medians; a traced run measures at least minTracedPairs
// untraced-and-traced pairs.
const (
	minPasses      = 3
	minTracedPairs = 2
)

// pacer decides how many passes a run measures: at least minPasses, then more
// while the measured time, traced passes included, stays within --seconds. A
// pass that would end more than half a pass past the limit is not started.
type pacer struct {
	limit, spent, last float64
	min, passes        int
}

func newPacer(cfg config) *pacer {
	if cfg.smoke {
		return &pacer{min: 1}
	}
	if cfg.trace {
		return &pacer{limit: float64(cfg.seconds), min: minTracedPairs}
	}
	return &pacer{limit: float64(cfg.seconds), min: minPasses}
}

func (pc *pacer) more() bool {
	return pc.passes < pc.min || pc.spent+pc.last/2 < pc.limit
}

// done records one pass; wall is its measured time, traced copy included.
func (pc *pacer) done(wall float64) {
	pc.passes++
	pc.spent += wall
	pc.last = wall
}

// timeSetup times one set-up from a settled heap.
func timeSetup(setup func() error) (float64, error) {
	settle()
	t0 := time.Now()
	err := setup()
	return time.Since(t0).Seconds(), err
}

// runSeq runs an in-process workload. With tracing, every pass runs twice
// over the same inputs, untraced then traced; the pair gives the tracing
// overhead and the traced copy's outputs must match the untraced ones.
func runSeq(cfg config, w seqWorkload) (*summary, error) {
	s := &summary{records: map[string]record{}}
	reps := 1
	if cfg.trace {
		reps = 2
	}
	pc := newPacer(cfg)
	for p := 0; pc.more(); p++ {
		var untracedWall, pairWall float64
		for rep := 0; rep < reps; rep++ {
			traced := rep == 1
			var ops []op
			t, err := timeSetup(func() (err error) {
				ops, err = w(cfg, p)
				return err
			})
			if err != nil {
				return nil, err
			}
			s.setup = append(s.setup, t)
			var tr *obs.Tracer
			if traced {
				tr = obs.New()
			}
			var rss *rssSampler
			if !traced {
				rss = sampleRSS()
			}
			cal := passCalib{extra: map[string]float64{}}
			wall := 0.0
			for _, o := range ops {
				s.attempted++
				sp := obs.Start(tr, "bench/op", obs.String("key", o.key))
				t := time.Now()
				oc, err := o.run(tr)
				lat := time.Since(t).Seconds()
				sp.End()
				wall += lat
				if err != nil {
					s.fail(o.key, err)
					continue
				}
				rec, err := oc.check()
				if err != nil {
					s.fail(o.key, err)
					continue
				}
				if !traced {
					s.lat = append(s.lat, lat)
					s.records[o.key] = rec
					continue
				}
				if runDigest(map[string]record{o.key: rec}) != runDigest(map[string]record{o.key: s.records[o.key]}) {
					s.fail(o.key, fmt.Errorf("traced run changed the outcome"))
				}
				for k, v := range oc.extra {
					cal.extra[k] += v
				}
				timeStaPower(oc.designs, &cal)
			}
			pairWall += wall
			if !traced {
				untracedWall = wall
				s.walls = append(s.walls, wall)
				s.rssP90 = append(s.rssP90, rss.finish())
				s.peakRSS = append(s.peakRSS, peakRSSMB())
				continue
			}
			m, err := layerMetrics(tr, cal)
			if err != nil {
				return nil, err
			}
			s.layers = append(s.layers, m)
			s.tracedWalls = append(s.tracedWalls, wall)
			s.overhead = append(s.overhead, ratio(wall, untracedWall)-1)
			s.lastTrace = tr
		}
		pc.done(pairWall)
	}
	s.passes = pc.passes
	for len(s.setup) < minSetupSamples {
		t, err := timeSetup(func() error {
			_, err := w(cfg, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, t)
	}
	return s, nil
}

// timeStaPower re-times the sta and power packages on the pass's designs
// with the benchmark's own calls, to split the pipeline's shared sta/power
// span between the two layers.
func timeStaPower(designs []*flow.Design, cal *passCalib) {
	for _, d := range designs {
		t0 := time.Now()
		loads := sta.LoadFromLayout(d.Lay)
		sta.Analyze(d.C, loads)
		t1 := time.Now()
		power.Estimate(d.C, loads, 4, d.Env.Seed)
		cal.staS += t1.Sub(t0).Seconds()
		cal.powerS += time.Since(t1).Seconds()
	}
}

// runServeWorkload runs the serve workload: each pass a fresh server whose
// JobResults are checked afterwards. Its set-up time is a server restart on
// the data directory a pass left: opening the populated verdict store and
// recovering the job journals.
func runServeWorkload(cfg config) (*summary, error) {
	s := &summary{records: map[string]record{}}
	reps := 1
	if cfg.trace {
		reps = 2
	}
	var done [][]jobRun
	var keys [][]string
	var last string
	pc := newPacer(cfg)
	for p := 0; pc.more(); p++ {
		var untracedWall, pairWall float64
		for rep := 0; rep < reps; rep++ {
			traced := rep == 1
			dir := serveDir(cfg, p, rep)
			settle()
			rss := sampleRSS()
			sp, err := runServePass(cfg, p, dir, traced)
			if p90 := rss.finish(); !traced {
				s.rssP90 = append(s.rssP90, p90)
				s.peakRSS = append(s.peakRSS, peakRSSMB())
			}
			if err == nil {
				var t float64
				t, err = restartServer(dir)
				s.setup = append(s.setup, t)
			}
			if last != "" {
				os.RemoveAll(last)
			}
			last = dir
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			var pk []string
			for i, j := range sp.jobs {
				pk = append(pk, fmt.Sprintf("%s@%d.%d.%d", j.spec.Bench, cfg.seed, p, i))
			}
			s.attempted += len(sp.jobs)
			pairWall += sp.wall
			if !traced {
				untracedWall = sp.wall
				s.walls = append(s.walls, sp.wall)
				for _, j := range sp.jobs {
					s.lat = append(s.lat, j.total)
				}
			} else {
				s.layers = append(s.layers, serveLayers(sp))
				s.tracedWalls = append(s.tracedWalls, sp.wall)
				s.overhead = append(s.overhead, ratio(sp.wall, untracedWall)-1)
				s.lastTrace = sp.tracer
			}
			done = append(done, sp.jobs)
			keys = append(keys, pk)
		}
		pc.done(pairWall)
	}
	s.passes = pc.passes
	for len(s.setup) < minSetupSamples {
		t, err := restartServer(last)
		if err != nil {
			os.RemoveAll(last)
			return nil, err
		}
		s.setup = append(s.setup, t)
	}
	os.RemoveAll(last)
	// Correctness, after the measured passes. Every job passes checkJob and
	// repeats its outcome when a traced run reruns its pass. The first pass's
	// repeat round, whose jobs read the shared store, must also match the
	// in-process reference of its specs; a reference costs as much as its
	// job, so the other jobs skip it.
	refs := map[string]record{}
	for _, j := range done[0][len(done[0])/2:] {
		refs[j.spec.ID()] = nil
	}
	for pi, jobs := range done {
		for i, j := range jobs {
			key := keys[pi][i]
			if j.err == nil {
				j.err = checkJob(j.spec, j.view.Result)
			}
			if j.err != nil {
				s.fail(key, j.err)
				continue
			}
			got := jobRecord(j.view.Result)
			if prev, ok := s.records[key]; ok && runDigest(map[string]record{key: prev}) != runDigest(map[string]record{key: got}) {
				s.fail(key, fmt.Errorf("traced run changed the outcome"))
				continue
			}
			s.records[key] = got
			id := j.spec.ID()
			want, ok := refs[id]
			if !ok {
				continue
			}
			if want == nil {
				var err error
				if want, err = referenceRecord(j.spec); err != nil {
					s.fail(key, fmt.Errorf("in-process reference: %w", err))
					continue
				}
				refs[id] = want
			}
			if bad := compareExpected(map[string]record{key: want}, map[string]record{key: got}); len(bad) > 0 {
				s.fail(key, fmt.Errorf("serve result differs from in-process resyn.RunFrom: %s", strings.Join(bad, "; ")))
			}
		}
	}
	return s, nil
}
