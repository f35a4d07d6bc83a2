package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/serve"
	"dfmresyn/internal/vstore"
)

// The serve workload's load: two closed-loop clients against two job slots,
// one classification worker per job, so the 2-core machine runs at most two
// jobs at once and nothing else generates load.
const (
	serveSlots   = 2
	serveClients = 2
	// pollEvery is how often a client looks at its job's state; it bounds
	// the resolution of the queue-wait and run-time split.
	pollEvery = time.Millisecond
	// jobDeadline fails a job a client has waited on this long.
	jobDeadline = 120 * time.Second
)

// serveCircuits are the circuits the job list draws from.
func serveCircuits(cfg config) []string {
	if cfg.smoke {
		return []string{"sparc_spu", "wb_conmax"}
	}
	return []string{"sparc_spu", "sparc_ifu", "wb_conmax", "sparc_tlu", "systemcaes"}
}

// serveJobs draws one pass's job list: every circuit once, in a seed-drawn
// order, then every circuit again, in another, so half the jobs revisit a
// circuit whose verdicts the shared store already holds (first runs write
// the store, repeats read it). A circuit's two jobs differ in spec seed and
// MaxQ, so each is distinct work. The spec seed is fixed per round (1, the
// paper's, for first runs and 2 for repeats) because it sets a job's sweep
// length, up to fourfold: drawn per job, it spread serve's pass time by a
// quarter across workload seeds. MaxQ is drawn, but a circuit's two jobs
// sweep 3 and 5, or 4 and 4, so a pass's total sweep range stays put.
func serveJobs(cfg config, pass int) []serve.JobSpec {
	rng := rand.New(rand.NewSource(passSeed(cfg.seed, pass)))
	names := serveCircuits(cfg)
	maxQ := make([]int, len(names))
	var jobs []serve.JobSpec
	for round := 0; round < 2; round++ {
		for _, i := range rng.Perm(len(names)) {
			if round == 0 {
				maxQ[i] = 3 + rng.Intn(3)
			} else {
				maxQ[i] = 8 - maxQ[i]
			}
			jobs = append(jobs, serve.JobSpec{Bench: names[i], Seed: int64(1 + round), MaxQ: maxQ[i], Workers: 1})
		}
	}
	return jobs
}

// jobRun is one job as its client saw it.
type jobRun struct {
	spec              serve.JobSpec
	queue, run, total float64 // seconds: submit→running, running→terminal, submit→terminal
	view              serve.JobView
	err               error
}

// awaitJob submits one job and polls it to a terminal state, recording a
// span for it on tr.
func awaitJob(srv *serve.Server, sp serve.JobSpec, tr *obs.Tracer) jobRun {
	r := jobRun{spec: sp}
	span := obs.Start(tr, "serve/job", obs.String("bench", sp.Bench), obs.Int("maxq", sp.MaxQ))
	defer span.End()
	t0 := time.Now()
	j, _, err := srv.Submit(sp)
	if err != nil {
		r.err = err
		return r
	}
	var tRun time.Time
	for {
		st := j.State()
		now := time.Now()
		if st == serve.StateRunning && tRun.IsZero() {
			tRun = now
		}
		if st == serve.StateDone || st == serve.StateFailed || st == serve.StateInterrupted || now.Sub(t0) > jobDeadline {
			if tRun.IsZero() {
				tRun = now
			}
			r.queue, r.run, r.total = tRun.Sub(t0).Seconds(), now.Sub(tRun).Seconds(), now.Sub(t0).Seconds()
			r.view = j.Snapshot()
			if st != serve.StateDone || r.view.Result == nil {
				r.err = fmt.Errorf("job %s ended %q: %s", j.ID, st, r.view.Error)
			}
			return r
		}
		time.Sleep(pollEvery)
	}
}

// servePass is the outcome of one pass: a fresh server on an empty data
// directory, the job list driven to completion by the clients, and a drain.
type servePass struct {
	wall float64
	jobs []jobRun
	// clientIdle totals, over clients, the pass time a client was not
	// waiting on a job (submitting, noticing completion, or finished early).
	clientIdle float64
	counters   map[string]int64
	layers     map[string]float64 // vstore probe, traced passes only
	tracer     *obs.Tracer        // one span per job, traced passes only
}

func runServePass(cfg config, pass int, dir string, probe bool) (*servePass, error) {
	srv, err := serve.New(serve.Options{DataDir: dir, Slots: serveSlots})
	if err != nil {
		return nil, err
	}
	sp := &servePass{}
	if probe {
		sp.tracer = obs.New()
	}
	specs := serveJobs(cfg, pass)
	sp.jobs = make([]jobRun, len(specs))
	busy := make([]float64, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				sp.jobs[i] = awaitJob(srv, specs[i], sp.tracer)
				busy[c] += sp.jobs[i].total
			}
		}()
	}
	wg.Wait()
	sp.wall = time.Since(start).Seconds()
	for _, b := range busy {
		sp.clientIdle += sp.wall - b
	}
	sp.counters = srv.Tracer().Registry().Snapshot().Counters
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, err
	}
	if probe {
		if sp.layers, err = probeStore(dir); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// restartServer times serve.New on an existing data directory — the store
// load and job recovery of a restarted server — and drains it again.
func restartServer(dir string) (float64, error) {
	settle()
	t0 := time.Now()
	srv, err := serve.New(serve.Options{DataDir: dir, Slots: serveSlots})
	if err != nil {
		return 0, err
	}
	t := time.Since(t0).Seconds()
	return t, srv.Drain(context.Background())
}

// probeStore times the benchmark's own calls into vstore on the store a pass
// left behind: reopening it, prewarming a fresh verdict cache from it, and
// merging that cache into an empty store.
func probeStore(dir string) (map[string]float64, error) {
	st, err := vstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	c := fcache.New()
	t0 := time.Now()
	st.Prewarm(c)
	prewarm := time.Since(t0).Seconds()
	dst, err := vstore.Open(filepath.Join(dir, "merge-probe"))
	if err != nil {
		return nil, err
	}
	entries := c.Export()
	t1 := time.Now()
	_, err = dst.Merge(entries)
	merge := time.Since(t1).Seconds()
	if err := errors.Join(err, dst.Close()); err != nil {
		return nil, err
	}
	return map[string]float64{
		"vstore.prewarm_s": prewarm,
		"vstore.merge_s":   merge,
		"vstore.entries":   float64(st.Len()),
	}, nil
}

// serveLayers is a pass's per-layer budget. The three serve times are
// client-seconds divided by the client count, so they partition the pass's
// wall time; the vstore numbers come from probeStore.
func serveLayers(sp *servePass) map[string]float64 {
	m := map[string]float64{}
	for _, k := range selfMetrics {
		m[k] = 0
	}
	var lookups, warm float64
	for _, j := range sp.jobs {
		m["serve.queue_wait_s"] += j.queue / serveClients
		m["serve.run_s"] += j.run / serveClients
		if j.view.Result != nil {
			lookups += float64(j.view.Result.CacheLookups)
			warm += float64(j.view.Result.WarmHits)
		}
	}
	m["serve.client_s"] = sp.clientIdle / serveClients
	m["trace.self_sum_s"] = m["serve.queue_wait_s"] + m["serve.run_s"] + m["serve.client_s"]
	m["vstore.lookups"] = lookups
	m["vstore.warm_hits"] = warm
	m["serve.prewarmed_entries"] = float64(sp.counters["serve/prewarmed_entries"])
	m["serve.store_appended"] = float64(sp.counters["serve/store_appended"])
	for k, v := range sp.layers {
		m[k] = v
	}
	for _, r := range ratioMetrics {
		m[r.metric] = ratio(m[r.num], m[r.den])
	}
	return m
}

// checkJob is the gate every serve job passes: no quarantined fault, a
// consistent fault count, and a BestQ within the spec's sweep.
func checkJob(sp serve.JobSpec, res *serve.JobResult) error {
	switch {
	case res.Quarantined != 0:
		return fmt.Errorf("%s: %d quarantined faults", sp.Bench, res.Quarantined)
	case res.F <= 0 || res.U < 0 || res.U > res.F:
		return fmt.Errorf("%s: U %d of F %d", sp.Bench, res.U, res.F)
	case res.BestQ < -1 || res.BestQ > sp.MaxQ:
		return fmt.Errorf("%s: BestQ %d outside -1..%d", sp.Bench, res.BestQ, sp.MaxQ)
	case res.BestQ < 0 && res.Commits != 0:
		return fmt.Errorf("%s: BestQ -1 with %d commits", sp.Bench, res.Commits)
	}
	return nil
}

// jobRecord is the tier-blind part of a JobResult: the Table II columns.
func jobRecord(res *serve.JobResult) record {
	return record{
		"BestQ":   fmt.Sprint(res.BestQ),
		"U":       fmt.Sprint(res.U),
		"Smax":    fmt.Sprint(res.Smax),
		"F":       fmt.Sprint(res.F),
		"Cov":     fmt.Sprintf("%.6f", res.Cov),
		"Commits": fmt.Sprint(res.Commits),
	}
}

// referenceRecord runs a job's spec in-process — the same environment
// serve builds, without the shared store — for the serve-equals-in-process
// check.
func referenceRecord(sp serve.JobSpec) (record, error) {
	env := flow.NewEnv()
	env.Seed, env.ATPG.Seed = sp.Seed, sp.Seed
	env.Workers = workers
	c, err := bench.Build(sp.Bench, env.Lib)
	if err != nil {
		return nil, err
	}
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		return nil, err
	}
	res, err := resyn.RunFrom(env, orig, resyn.Options{MaxQ: sp.MaxQ})
	if err != nil {
		return nil, err
	}
	if err := checkSweep(orig, res, sp.Seed); err != nil {
		return nil, err
	}
	m := res.Final.Metrics()
	return jobRecord(&serve.JobResult{BestQ: res.BestQ, U: m.U, Smax: m.Smax, F: m.F, Cov: m.Cov, Commits: len(res.Trace)}), nil
}

// serveDir is a fresh data directory for one pass.
func serveDir(cfg config, pass, rep int) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d-%d-%d", os.Getpid(), pass, rep))
}
