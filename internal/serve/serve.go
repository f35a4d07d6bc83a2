// Package serve is the multi-tenant analysis server: a bounded job
// scheduler over the resynthesis pipeline with crash-recoverable jobs and
// a persistent fault-verdict store shared across jobs and processes.
//
// Failure model. Every job state transition is journaled (resilience
// envelope: versioned header, CRC, atomic replacement) to
// <datadir>/jobs/<id>.job before clients can observe it, and every accepted
// sweep iteration writes a resyn checkpoint next to it. A server process
// killed at any instant — SIGKILL included — restarts into a consistent
// fleet: terminal jobs stay terminal, live jobs (queued, running,
// interrupted) are re-admitted and resume from their checkpoints, and each
// resumed job's one provenance ledger file is canonically byte-identical to
// an uninterrupted run's. The shared verdict store (internal/vstore) heals
// its own torn or corrupted segments on open. Job-level panics are retried
// once and then quarantined as failed jobs; they never take down the
// server or its other tenants.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dfmresyn/internal/obs"
	"dfmresyn/internal/par"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/vstore"
)

// Submission outcomes the HTTP layer maps to status codes.
var (
	// ErrDraining rejects new work while the server shuts down (503).
	ErrDraining = errors.New("serve: draining")
	// ErrQueueFull rejects work beyond the bounded queue (429).
	ErrQueueFull = errors.New("serve: queue full")
)

// errJobPanicked wraps a recovered job-level panic.
var errJobPanicked = errors.New("serve: job panicked")

// Options configures a Server.
type Options struct {
	// DataDir roots the server's persistent state: DataDir/store is the
	// shared verdict store, DataDir/jobs the per-job journals, checkpoints
	// and ledgers.
	DataDir string
	// Slots is the number of concurrently running jobs (0 = NumCPU).
	Slots int
	// QueueCap bounds the pending-job queue (0 = 16). Submissions beyond
	// it are rejected with ErrQueueFull.
	QueueCap int
	// JobTimeout, when positive, bounds each job's wall time. A job that
	// exceeds it fails (it is not re-admitted: a deterministic job that
	// timed out once would time out forever).
	JobTimeout time.Duration
	// ChaosPanic, when positive, injects ATPG worker panics at this rate
	// into every job — the chaos harness knob, exercising the engine's
	// recover/retry/quarantine path under multi-tenant load.
	ChaosPanic float64
	// InjectJobPanic, when non-nil, is consulted before each job execution
	// attempt; returning true panics the whole job (not just one fault) —
	// the test hook for the job-level retry/quarantine guard.
	InjectJobPanic func(id string, attempt int) bool
}

// Server is the analysis server. Create with New, mount Handler on an HTTP
// listener, stop with Drain.
type Server struct {
	opt     Options
	jobsDir string
	store   *vstore.Store
	tracer  *obs.Tracer
	health  *obs.Health
	baseCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed at drain: releases ledger followers
	queue   chan *Job
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int64

	drainOnce sync.Once
	drainErr  error
}

// New opens (or creates) the server state under opt.DataDir, re-admits
// every journaled job that was alive when the previous process died, and
// starts the worker slots. The verdict store's flock makes concurrent
// servers on one DataDir fail fast with vstore.ErrLocked.
func New(opt Options) (*Server, error) {
	if opt.DataDir == "" {
		return nil, errors.New("serve: Options.DataDir is required")
	}
	opt.Slots = par.Count(opt.Slots)
	if opt.QueueCap == 0 {
		opt.QueueCap = 16
	}
	jobsDir := filepath.Join(opt.DataDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	store, err := vstore.Open(filepath.Join(opt.DataDir, "store"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		jobsDir: jobsDir,
		store:   store,
		tracer:  obs.New(),
		health:  &obs.Health{},
		baseCtx: ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		queue:   make(chan *Job, opt.QueueCap),
		jobs:    make(map[string]*Job),
	}
	st := store.Stats()
	s.tracer.Counter("serve/store_entries_loaded").Add(int64(store.Len()))
	s.tracer.Counter("serve/store_healed_records").Add(int64(st.HealedRecords))
	s.tracer.Counter("serve/store_quarantined_segments").Add(int64(st.QuarantinedSegs))

	recovered, err := s.recoverJobs()
	if err != nil {
		store.Close()
		cancel()
		return nil, err
	}
	for i := 0; i < opt.Slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Re-admitted jobs may outnumber the queue; feed them from a goroutine
	// so New returns promptly while the backlog drains through the slots.
	if len(recovered) > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, j := range recovered {
				select {
				case s.queue <- j:
				case <-s.baseCtx.Done():
					return
				}
			}
		}()
	}
	return s, nil
}

// recoverJobs loads every journaled job, re-admitting the ones the previous
// process left alive. Corrupt journals are quarantined (renamed), never
// trusted and never fatal.
func (s *Server) recoverJobs() ([]*Job, error) {
	paths, err := filepath.Glob(filepath.Join(s.jobsDir, "*.job"))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sort.Strings(paths)
	var recovered []*Job
	for _, path := range paths {
		var rec jobRecord
		if lerr := resilience.LoadJournal(path, jobJournalKind, jobJournalVersion, &rec); lerr != nil {
			// A torn or foreign journal tells us nothing reliable about
			// the job; set it aside for inspection. An identical
			// resubmission will pick up any surviving checkpoint.
			os.Rename(path, path+".quarantine")
			s.tracer.Counter("serve/journals_quarantined").Inc()
			continue
		}
		if rec.ID == "" || rec.ID != rec.Spec.ID() || rec.ID != strings.TrimSuffix(filepath.Base(path), ".job") {
			os.Rename(path, path+".quarantine")
			s.tracer.Counter("serve/journals_quarantined").Inc()
			continue
		}
		j := &Job{ID: rec.ID, Seq: rec.Seq, Spec: rec.Spec, state: rec.State, errMsg: rec.Error, result: rec.Result}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		s.jobs[j.ID] = j
		switch rec.State {
		case StateDone, StateFailed:
			// Terminal: served from memory, never re-run.
		default:
			// queued, running or interrupted when the process died:
			// re-admit. A checkpoint on disk makes the re-run a resume.
			j.state = StateQueued
			if err := s.saveJob(j); err != nil {
				return nil, err
			}
			s.tracer.Counter("serve/jobs_readmitted").Inc()
			recovered = append(recovered, j)
		}
	}
	sort.Slice(recovered, func(a, b int) bool { return recovered[a].Seq < recovered[b].Seq })
	return recovered, nil
}

// saveJob journals the job's current state (atomic replace).
func (s *Server) saveJob(j *Job) error {
	v := j.Snapshot()
	rec := jobRecord{ID: v.ID, Seq: v.Seq, Spec: v.Spec, State: v.State, Error: v.Error, Result: v.Result}
	path := filepath.Join(s.jobsDir, j.ID+".job")
	if err := resilience.WriteJournal(path, jobJournalKind, jobJournalVersion, rec); err != nil {
		return fmt.Errorf("serve: journaling job %s: %w", j.ID, err)
	}
	return nil
}

// setState transitions the job and journals the transition.
func (s *Server) setState(j *Job, state, errMsg string, res *JobResult) error {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	if res != nil {
		j.result = res
	}
	j.mu.Unlock()
	return s.saveJob(j)
}

// Submit admits a job. admitted reports whether this call queued work (a
// new job, or the re-admission of an interrupted one); an idempotent hit on
// an existing live or terminal job returns that job with admitted=false.
func (s *Server) Submit(sp JobSpec) (j *Job, admitted bool, err error) {
	if err := sp.Validate(); err != nil {
		return nil, false, err
	}
	if s.health.Draining() {
		s.tracer.Counter("serve/jobs_rejected").Inc()
		return nil, false, ErrDraining
	}
	id := sp.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[id]; ok {
		if existing.State() != StateInterrupted {
			return existing, false, nil
		}
		// Interrupted jobs re-admit on resubmission: the journaled
		// checkpoint turns the re-run into a resume.
		if err := s.setState(existing, StateQueued, "", nil); err != nil {
			return nil, false, err
		}
		select {
		case s.queue <- existing:
			s.tracer.Counter("serve/jobs_readmitted").Inc()
			return existing, true, nil
		default:
			s.setState(existing, StateInterrupted, "", nil)
			s.tracer.Counter("serve/jobs_rejected").Inc()
			return nil, false, ErrQueueFull
		}
	}
	s.seq++
	j = &Job{ID: id, Seq: s.seq, Spec: sp, state: StateQueued}
	// Journal before enqueueing: once a client has seen "queued", a crash
	// must not forget the job.
	if err := s.saveJob(j); err != nil {
		s.seq--
		return nil, false, err
	}
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.tracer.Counter("serve/jobs_submitted").Inc()
		s.tracer.Gauge("serve/queue_depth").Set(float64(len(s.queue)))
		return j, true, nil
	default:
		os.Remove(filepath.Join(s.jobsDir, id+".job"))
		s.seq--
		s.tracer.Counter("serve/jobs_rejected").Inc()
		return nil, false, ErrQueueFull
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all known jobs in admission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].Seq < all[b].Seq })
	views := make([]JobView, len(all))
	for i, j := range all {
		views[i] = j.Snapshot()
	}
	return views
}

// Tracer exposes the server's metrics registry (mounted at /metrics by
// Handler).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Health exposes the server's readiness state (mounted at /readyz).
func (s *Server) Health() *obs.Health { return s.health }

// Store exposes the shared verdict store (for stats reporting).
func (s *Server) Store() *vstore.Store { return s.store }

// worker is one job slot: it drains the queue until the server shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.tracer.Gauge("serve/queue_depth").Set(float64(len(s.queue)))
			s.runJob(j)
		}
	}
}

// runJob executes one job with the panic quarantine: a panicking job is
// retried once from scratch (transient wounds heal), a second panic marks
// it failed — the tenant is quarantined, the server lives on.
func (s *Server) runJob(j *Job) {
	if s.baseCtx.Err() != nil {
		s.setState(j, StateInterrupted, "", nil)
		return
	}
	if err := s.setState(j, StateRunning, "", nil); err != nil {
		s.setState(j, StateFailed, err.Error(), nil)
		return
	}
	jobCtx := s.baseCtx
	var cancelJob context.CancelFunc
	if s.opt.JobTimeout > 0 {
		jobCtx, cancelJob = context.WithTimeout(jobCtx, s.opt.JobTimeout)
		defer cancelJob()
	}
	var res *JobResult
	var err error
	for attempt := 0; ; attempt++ {
		res, err = s.tryJob(j, jobCtx, attempt)
		if errors.Is(err, errJobPanicked) && attempt == 0 {
			s.tracer.Counter("serve/job_panics_retried").Inc()
			continue
		}
		break
	}
	// Each outcome counter is bumped before setState publishes the job's
	// final state, so anyone who observes the state also sees the count.
	switch {
	case err == nil:
		s.tracer.Counter("serve/jobs_completed").Inc()
		s.setState(j, StateDone, "", res)
	case errors.Is(err, errJobPanicked):
		s.tracer.Counter("serve/jobs_quarantined").Inc()
		s.setState(j, StateFailed, err.Error(), nil)
	case errors.Is(err, resilience.ErrInterrupted) &&
		jobCtx.Err() == context.DeadlineExceeded && s.baseCtx.Err() == nil:
		// The job's own deadline expired while the server kept running: a
		// deterministic job that timed out once would time out on every
		// resume, so re-admission would crash-loop. Fail it.
		s.tracer.Counter("serve/jobs_deadline_failed").Inc()
		s.setState(j, StateFailed, fmt.Sprintf("serve: job deadline %v exceeded", s.opt.JobTimeout), nil)
	case errors.Is(err, resilience.ErrInterrupted):
		// Drain or StopAfterCommits: the consistent prefix is journaled;
		// the job is re-admittable and resumes where it stopped.
		s.tracer.Counter("serve/jobs_interrupted").Inc()
		s.setState(j, StateInterrupted, err.Error(), nil)
	default:
		s.tracer.Counter("serve/jobs_failed").Inc()
		s.setState(j, StateFailed, err.Error(), nil)
	}
}

// tryJob is one execution attempt under a recover guard.
func (s *Server) tryJob(j *Job, ctx context.Context, attempt int) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errJobPanicked, r)
		}
	}()
	if hook := s.opt.InjectJobPanic; hook != nil && hook(j.ID, attempt) {
		panic("serve: injected job panic")
	}
	return s.runSpec(j, ctx)
}

// Drain shuts the server down gracefully: readiness flips to draining
// (new submissions get ErrDraining, /readyz reports 503), live ledger
// followers are released, running jobs are interrupted at their next
// deterministic boundary and journaled as re-admittable, and the verdict
// store is closed. ctx bounds the wait; an expired ctx abandons the
// workers (their journals still make their jobs recoverable — that is the
// whole point). Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.health.SetDraining()
		close(s.done)
		s.cancel()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("serve: drain: %w", ctx.Err())
		}
		// Jobs still sitting in the queue never started; journal them back
		// to their re-admittable state explicitly for tidiness (recovery
		// would re-admit "queued" anyway).
		for {
			select {
			case j := <-s.queue:
				s.setState(j, StateInterrupted, "", nil)
			default:
				if err := s.store.Close(); err != nil && s.drainErr == nil {
					s.drainErr = err
				}
				return
			}
		}
	})
	return s.drainErr
}
