package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
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
	// LedgerDigest / LedgerEvents cover the job's one provenance ledger
	// file, whichever processes wrote it, and equal its last summary
	// record: byte-identical for an uninterrupted run and a
	// kill/restart/resume of the same spec.
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

// ckptPath and ledgerPath name a job's checkpoint journal and its ledger. A
// job keeps one ledger file across every process that runs it: a resume cuts
// it back to the checkpoint's last commit and appends from there.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.jobsDir, id+".ckpt")
}

func (s *Server) ledgerPath(id string) string {
	return filepath.Join(s.jobsDir, id+".ledger.jsonl")
}

// runSpec executes a job's sweep — fresh, or resumed from its checkpoint —
// inside jobCtx. It owns the digest-identity choreography; the ordering
// here is what makes a killed+resumed job's ledger canonically
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

	// One decision: resume when the checkpoint loads and the job's ledger
	// reaches its last commit; otherwise run fresh.
	ck, err := resyn.LoadCheckpoint(ckpt)
	// A checkpoint on disk, usable or not, makes this a re-run, and a re-run
	// goes to completion: StopAfterCommits already fired once (or the
	// process died), and carried on it would stop a resume at once, since
	// the replayed prefix alone satisfies it, and a fresh run at its first
	// commit.
	rerun := !errors.Is(err, fs.ErrNotExist)
	if rerun {
		opt.StopAfterCommits = 0
	}
	var ledger *obs.Ledger
	if err == nil {
		ledger, err = obs.ResumeLedger(s.ledgerPath(j.ID), len(ck.Commits))
	}
	resumed := err == nil
	if rerun && !resumed {
		// A damaged journal or verdict log, or a ledger that falls short of
		// the checkpoint's last commit: rerun from scratch — correct, just
		// slower.
		s.tracer.Counter("serve/resume_fallbacks").Inc()
	}

	cache := fcache.New()
	env.FaultCache = cache
	prewarmed := 0
	// own marks where the job's own verdicts begin in the cache's store
	// order: after the prewarmed ones on a fresh run, at the start on a
	// resume, whose imported verdict log holds the killed run's verdicts.
	var own fcache.Mark
	if !resumed {
		// The one fresh path. Best effort: the first commit overwrites a
		// leftover checkpoint and starts its verdict log over.
		_ = resyn.RemoveCheckpoint(ckpt)
		if ledger, err = obs.CreateLedger(s.ledgerPath(j.ID)); err != nil {
			return nil, err
		}
		// Seed the verdict cache from the shared store. On an empty store
		// this is a free no-op, so the first job in a fresh data directory —
		// the uninterrupted baseline the digest tests compare against — is
		// bit-for-bit the storeless run.
		prewarmed = s.store.Prewarm(cache)
		own = cache.Mark()
		s.tracer.Counter("serve/prewarmed_entries").Add(int64(prewarmed))
	}
	// On resume the verdicts in the checkpoint's verdict log are the
	// authoritative warm state (resyn.Resume imports them before replay);
	// prewarming from the since-grown store instead would change tier
	// attribution and break ledger-digest identity with the killed run.

	// The job's digest and event count come from its ledger writer. A
	// resumed ledger has folded in the records it kept, so its running
	// digest, and the summary Close writes, cover the whole job.
	j.mu.Lock()
	j.ledger = ledger
	j.mu.Unlock()
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

	// A fresh run's ledger records the original analysis. A resumed ledger
	// already holds it, so this process's pre-replay Analyze stays
	// ledger-silent.
	if !resumed {
		env.Ledger = ledger
	}
	orig, err := env.Analyze(c, geom.Rect{})
	if err != nil {
		return nil, err
	}
	env.Ledger = ledger

	var res *resyn.Result
	if resumed {
		res, err = resyn.Resume(env, orig, ck, opt)
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
