package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/chaos"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/verilog"
)

// JobSpec is a client's analysis request: one circuit source plus the sweep
// options that shape the result. The spec IS the job's identity — two
// submissions with identical specs are the same job (idempotent
// resubmission), which is what lets a client whose server crashed mid-run
// simply POST the same body again and land on the recovered job.
type JobSpec struct {
	// Name is an optional display label. It participates in the job ID
	// like every other field, so distinct names are distinct jobs.
	Name string `json:"name,omitempty"`
	// Exactly one circuit source must be set.
	Bench   string `json:"bench,omitempty"`   // built-in benchmark circuit name
	Circuit string `json:"circuit,omitempty"` // .ckt netlist text
	Verilog string `json:"verilog,omitempty"` // structural Verilog module text
	// MaxQ bounds the sweep's delay/power slack percentage (0 selects the
	// paper's 5). Seed is the deterministic run seed (0 selects 1).
	// Workers bounds the job's classification worker pool (0 = NumCPU);
	// any value yields byte-identical results.
	MaxQ    int   `json:"maxQ,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// StopAfterCommits, when positive, interrupts the sweep after that
	// many accepted iterations exactly like a kill at that point — the
	// chaos/test knob for exercising resume, same as the CLI's -stopafter.
	// The job lands in state interrupted and a resubmission resumes it.
	StopAfterCommits int `json:"stopAfterCommits,omitempty"`
}

// Validate rejects specs the scheduler should never admit.
func (sp JobSpec) Validate() error {
	n := 0
	if sp.Bench != "" {
		n++
	}
	if sp.Circuit != "" {
		n++
	}
	if sp.Verilog != "" {
		n++
	}
	if n != 1 {
		return fmt.Errorf("serve: spec must set exactly one of bench, circuit, verilog (got %d)", n)
	}
	if sp.MaxQ < 0 || sp.MaxQ > 100 {
		return fmt.Errorf("serve: maxQ %d outside 0..100", sp.MaxQ)
	}
	if sp.Workers < 0 || sp.StopAfterCommits < 0 || sp.Seed < 0 {
		return fmt.Errorf("serve: negative option")
	}
	return nil
}

// ID is the job's content address: the truncated SHA-256 of the spec's
// canonical JSON.
func (sp JobSpec) ID() string {
	b, _ := json.Marshal(sp) // fixed field order; cannot fail
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// Job states. queued and running are live; interrupted is re-admittable
// (crash, drain or StopAfterCommits — the checkpoint journal carries the
// completed prefix); done and failed are terminal.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateInterrupted = "interrupted"
	StateDone        = "done"
	StateFailed      = "failed"
)

// JobResult is the terminal outcome of a completed job: the sweep's
// Table II core plus the resilience/caching telemetry that makes fleet
// behaviour observable (was this job resumed, what did the shared store
// contribute).
type JobResult struct {
	BestQ   int     `json:"bestQ"`
	U       int     `json:"u"`
	Smax    int     `json:"smax"`
	F       int     `json:"f"`
	T       int     `json:"t"`
	Cov     float64 `json:"cov"`
	Commits int     `json:"commits"`
	// LedgerDigest / LedgerEvents cover the job's on-disk provenance
	// ledger, all segments stitched, and equal its last summary record:
	// byte-identical for an uninterrupted run and a kill/restart/resume of
	// the same spec.
	LedgerDigest string `json:"ledgerDigest"`
	LedgerEvents int    `json:"ledgerEvents"`
	// Resumed / ReplayedCommits report crash recovery; Prewarmed /
	// WarmHits report what the shared verdict store contributed.
	Resumed         bool           `json:"resumed,omitempty"`
	ReplayedCommits int            `json:"replayedCommits,omitempty"`
	Prewarmed       int            `json:"prewarmed,omitempty"`
	CacheLookups    uint64         `json:"cacheLookups"`
	CacheHits       uint64         `json:"cacheHits"`
	WarmHits        uint64         `json:"warmHits"`
	SATEscalations  int            `json:"satEscalations,omitempty"`
	Quarantined     int            `json:"quarantined,omitempty"`
	Tiers           obs.TierCounts `json:"tiers"`
}

// Job is one admitted analysis. State transitions are journaled to
// jobs/<id>.job before they take effect for clients, so a crash at any
// point leaves a journal the restarted server can act on.
type Job struct {
	ID   string
	Seq  int64
	Spec JobSpec

	mu     sync.Mutex
	state  string
	errMsg string
	result *JobResult
	ledger *obs.Ledger // live flight recorder while running
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot returns the job's externally visible state for the HTTP API.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{ID: j.ID, Seq: j.Seq, Spec: j.Spec, State: j.state, Error: j.errMsg, Result: j.result}
}

// liveLedger returns the in-flight flight recorder, or nil.
func (j *Job) liveLedger() *obs.Ledger {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ledger
}

// JobView is the JSON shape of a job on the wire.
type JobView struct {
	ID     string     `json:"id"`
	Seq    int64      `json:"seq"`
	Spec   JobSpec    `json:"spec"`
	State  string     `json:"state"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// jobJournalKind / jobJournalVersion frame the per-job journal under the
// resilience envelope (versioned header, CRC, atomic replacement).
const (
	jobJournalKind    = "serve-job"
	jobJournalVersion = 1
)

// jobRecord is the journaled form of a job.
type jobRecord struct {
	ID     string     `json:"id"`
	Seq    int64      `json:"seq"`
	Spec   JobSpec    `json:"spec"`
	State  string     `json:"state"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// buildSpecCircuit materializes the spec's circuit source against lib.
// Circuits must be built against the analyzing environment's own library:
// netlist gates reference library cells by pointer.
func buildSpecCircuit(sp JobSpec, lib *library.Library) (*netlist.Circuit, error) {
	switch {
	case sp.Bench != "":
		c, err := bench.Build(sp.Bench, lib)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		return c, nil
	case sp.Circuit != "":
		c, err := netlist.Read(strings.NewReader(sp.Circuit), lib)
		if err != nil {
			return nil, fmt.Errorf("serve: parsing circuit: %w", err)
		}
		return c, nil
	case sp.Verilog != "":
		c, err := verilog.ReadModule(strings.NewReader(sp.Verilog), lib)
		if err != nil {
			return nil, fmt.Errorf("serve: parsing verilog: %w", err)
		}
		return c, nil
	}
	return nil, errors.New("serve: empty spec")
}

// ckptPath / ledgerSegPath / ledgerSegments name a job's on-disk artifacts.
// Ledger segments exist because a resumed job must truncate the killed
// run's ledger at the checkpoint boundary and then keep appending; each
// process writes its own segment and readers stitch them in order.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.jobsDir, id+".ckpt")
}

func (s *Server) ledgerSegPath(id string, n int) string {
	return filepath.Join(s.jobsDir, fmt.Sprintf("%s.ledger.%06d.jsonl", id, n))
}

func (s *Server) ledgerSegments(id string) []string {
	names, _ := filepath.Glob(filepath.Join(s.jobsDir, id+".ledger.*.jsonl"))
	sort.Strings(names)
	return names
}

// segOrdinal parses the segment number out of a segment path.
func segOrdinal(path string) int {
	parts := strings.Split(filepath.Base(path), ".")
	if len(parts) < 2 {
		return 0
	}
	var n int
	fmt.Sscanf(parts[len(parts)-2], "%d", &n)
	return n
}

// readLedgerLines reads one ledger segment leniently: well-formed JSONL
// lines of known record types, stopping (without error) at the first torn
// or foreign line — exactly what a SIGKILL mid-write leaves behind. Records
// come back alongside their raw lines so truncation can rewrite the prefix
// byte-identically.
func readLedgerLines(path string) (lines []string, recs []obs.LedgerRecord) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 {
			continue
		}
		var rec obs.LedgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return lines, recs
		}
		switch rec.T {
		case "stage", "verdict", "iter", "summary":
		default:
			return lines, recs
		}
		lines = append(lines, line)
		recs = append(recs, rec)
	}
	return lines, recs
}

// prepareResumeLedger truncates the killed run's on-disk ledger to exactly
// the records up to and including the k-th iter record (the commit the
// checkpoint describes) and deletes everything after — later records belong
// to analyses the resumed continuation re-runs and re-emits, so keeping
// them would duplicate. Returns the kept records, which seed the next
// segment's digest, and the next segment ordinal to append under, or
// ok=false when the segments do not contain k iter records (an inconsistent
// pair — the caller falls back to a fresh run, which is always correct and
// only loses work). The ledger's iter-record fsync barrier makes the
// inconsistent case unreachable for a real kill: the k-th iter record is
// durable before the checkpoint naming it can land.
func (s *Server) prepareResumeLedger(id string, k int) (nextSeg int, kept []obs.LedgerRecord, ok bool) {
	segs := s.ledgerSegments(id)
	iters := 0
	for si, path := range segs {
		lines, recs := readLedgerLines(path)
		for li, rec := range recs {
			if rec.T != "iter" {
				continue
			}
			iters++
			if iters < k {
				continue
			}
			var b strings.Builder
			for _, line := range lines[:li+1] {
				b.WriteString(line)
				b.WriteByte('\n')
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				return 0, nil, false
			}
			for _, later := range segs[si+1:] {
				os.Remove(later)
			}
			return segOrdinal(path) + 1, append(kept, recs[:li+1]...), true
		}
		kept = append(kept, recs...)
	}
	return 0, nil, false
}

// removeJobArtifacts deletes a job's checkpoint, its verdict logs and its
// ledger segments (the fresh-run reset).
func (s *Server) removeJobArtifacts(id string) {
	// Best effort: the fresh run's first commit overwrites a checkpoint and
	// truncates a verdict log left behind.
	_ = resyn.RemoveCheckpoint(s.ckptPath(id))
	for _, seg := range s.ledgerSegments(id) {
		os.Remove(seg)
	}
}

// runSpec executes a job's sweep — fresh, or resumed from its checkpoint —
// inside jobCtx. It owns the digest-identity choreography; the ordering
// here is what makes a killed+resumed job's stitched ledger canonically
// byte-identical to an uninterrupted run's.
func (s *Server) runSpec(j *Job, jobCtx context.Context) (*JobResult, error) {
	sp := j.Spec
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	env := flow.NewEnv()
	env.Seed = seed
	env.ATPG.Seed = seed
	env.Workers = sp.Workers
	env.Ctx = jobCtx
	if s.opt.ChaosPanic > 0 {
		env.ATPG.InjectPanic = chaos.Panics(seed, s.opt.ChaosPanic)
	}
	c, err := buildSpecCircuit(sp, env.Lib)
	if err != nil {
		return nil, err
	}

	ckpt := s.ckptPath(j.ID)
	opt := resyn.Options{MaxQ: sp.MaxQ, Journal: ckpt, StopAfterCommits: sp.StopAfterCommits}

	ck, ckErr := resyn.LoadCheckpoint(ckpt)
	resumed := ckErr == nil
	if ckErr != nil && !errors.Is(ckErr, fs.ErrNotExist) {
		// A damaged journal or verdict log: rerun from scratch.
		s.tracer.Counter("serve/resume_fallbacks").Inc()
	}
	nextSeg := 1
	var kept []obs.LedgerRecord
	if resumed {
		var ok bool
		nextSeg, kept, ok = s.prepareResumeLedger(j.ID, len(ck.Commits))
		if !ok {
			// Checkpoint and ledger disagree (or the ledger is gone):
			// discard both and rerun from scratch — correct, just slower.
			s.tracer.Counter("serve/resume_fallbacks").Inc()
			resumed = false
			nextSeg = 1
		}
	}
	if !resumed {
		s.removeJobArtifacts(j.ID)
	}

	cache := fcache.New()
	env.FaultCache = cache
	prewarmed := 0
	// own marks where the job's own verdicts begin in the cache's store
	// order: after the prewarmed ones on a fresh run, at the start on a
	// resume, whose imported verdict log holds the killed run's verdicts.
	var own fcache.Mark
	if !resumed {
		// Fresh run: seed the verdict cache from the shared store. On an
		// empty store this is a free no-op, so the first job in a fresh
		// data directory — the uninterrupted baseline the digest tests
		// compare against — is bit-for-bit the storeless run.
		prewarmed = s.store.Prewarm(cache)
		own = cache.Mark()
		s.tracer.Counter("serve/prewarmed_entries").Add(int64(prewarmed))
	}
	// On resume the verdicts in the checkpoint's verdict log are the
	// authoritative warm state (resyn.Resume imports them before replay);
	// prewarming from the since-grown store instead would change tier
	// attribution and break ledger-digest identity with the killed run.

	// The job's digest and event count come from its ledger writer. A
	// resumed segment is seeded with the kept prefix, so its running
	// digest, and the summary Close writes, cover the whole job.
	var ledger *obs.Ledger
	attach := func(n int, prefix []obs.LedgerRecord) error {
		l, cerr := obs.CreateLedger(s.ledgerSegPath(j.ID, n))
		if cerr != nil {
			return cerr
		}
		if serr := l.SeedPrefix(prefix); serr != nil {
			l.Close()
			return serr
		}
		ledger = l
		env.Ledger = l
		j.mu.Lock()
		j.ledger = l
		j.mu.Unlock()
		return nil
	}
	// detach closes the ledger and returns its sticky error: a ledger that
	// could not be written fails the job rather than report a digest of
	// records that never reached disk.
	detach := func() error {
		j.mu.Lock()
		j.ledger = nil
		j.mu.Unlock()
		if ledger == nil {
			return nil
		}
		err := ledger.Close()
		ledger = nil
		return err
	}
	defer detach()

	if !resumed {
		// Fresh: the original analysis is part of the job's ledger.
		if err := attach(1, nil); err != nil {
			return nil, err
		}
	}
	// Resumed: the killed run's segments already carry the original
	// analysis; this process's pre-replay Analyze must stay ledger-silent
	// or the stitched stream would record it twice.
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		return nil, err
	}

	var res *resyn.Result
	if resumed {
		if err := attach(nextSeg, kept); err != nil {
			return nil, err
		}
		kept = nil // folded into the digest; free it for the sweep
		// A re-admitted job runs to completion: StopAfterCommits already
		// fired once (or the process died); carrying it into the
		// continuation would re-interrupt immediately, since the replayed
		// prefix alone satisfies it.
		opt.StopAfterCommits = 0
		res, err = resyn.Resume(env, orig, ckpt, opt)
	} else {
		res, err = resyn.RunFrom(env, orig, opt)
	}
	if err != nil {
		return nil, err
	}

	// Success: close the ledger (durable summary), publish this job's
	// verdicts to the shared store, then drop the checkpoint — the job is
	// terminal, nothing will resume it.
	digest, events := ledger.Digest(), ledger.Events()
	if err := detach(); err != nil {
		return nil, fmt.Errorf("serve: ledger: %w", err)
	}
	// Only the verdicts the job stored itself go to the store, in store
	// order. If the integrity check dropped an entry meanwhile, Since
	// returns the whole cache and Merge skips what the store already holds.
	mine, _, _ := cache.Since(own)
	if added, merr := s.store.Merge(mine); merr != nil {
		// The job's own result is sound; a store append failure only
		// costs future warmth. Record it and move on.
		s.tracer.Counter("serve/store_merge_errors").Inc()
	} else {
		s.tracer.Counter("serve/store_appended").Add(int64(added))
	}
	// Best effort: nothing resumes a done job, so a leftover only costs disk.
	_ = resyn.RemoveCheckpoint(ckpt)

	m := res.Final.Metrics()
	return &JobResult{
		BestQ:           res.BestQ,
		U:               m.U,
		Smax:            m.Smax,
		F:               m.F,
		T:               m.T,
		Cov:             m.Cov,
		Commits:         len(res.Trace),
		LedgerDigest:    digest,
		LedgerEvents:    events,
		Resumed:         res.Resumed,
		ReplayedCommits: res.ReplayedCommits,
		Prewarmed:       prewarmed,
		CacheLookups:    res.Cache.Lookups,
		CacheHits:       res.Cache.Hits,
		WarmHits:        cache.Stats().WarmHits,
		SATEscalations:  res.SATEscalations,
		Quarantined:     res.Quarantined,
		Tiers:           res.Tiers,
	}, nil
}
