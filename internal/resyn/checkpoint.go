package resyn

import (
	"fmt"
	"hash/crc32"
	"os"
	"strings"

	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resilience"
	"dfmresyn/internal/synth"
)

// Checkpoint/resume for the resynthesis sweep.
//
// After every accepted iteration, commit() journals the complete resumable
// sweep state through the resilience journal format (versioned header,
// CRC-32 over the payload, atomic temp-file + rename replacement). The
// journal carries the full commit chain — each accepted iteration's
// position plus the committed circuit in the exact-order codec — because
// everything else the continuation needs (fault verdicts, clusters, U and
// S_max columns, the RNG streams) is a deterministic function of the
// committed circuits and the run configuration: the per-fault PODEM rngs
// are derived from (seed, fault ID) per search, and the equivalence-check
// rng from the env seed per candidate, so there is no long-lived RNG
// cursor to snapshot.
//
// Resume replays the chain — re-parsing and re-analyzing each committed
// circuit incrementally from its predecessor, exactly as the original run
// analyzed it — then re-enters the sweep loops at the journaled (q, phase,
// iteration). The replayed prefix and the live continuation are therefore
// byte-identical to an uninterrupted run: same Trace and Iters rows, same
// Table II columns, same Fig. 2 series.

// checkpointKind and checkpointVersion frame the sweep journal. Bump the
// version whenever Checkpoint, commitRecord, or the exact-order circuit
// codec change shape: an old journal then fails with ErrVersion instead of
// silently resuming wrong state.
const (
	checkpointKind    = "resyn-sweep"
	checkpointVersion = 2 // v2: CacheEntries journals the fault-verdict cache
)

// commitRecord journals one accepted iteration: where in the sweep it
// happened, what the trace row needs to reproduce itself, and the
// committed circuit. The U/Smax/F columns are deliberately absent — replay
// recomputes them from the circuit, so a tampered journal can not forge a
// trajectory its circuits do not produce.
type commitRecord struct {
	Q        int    `json:"q"`
	Phase    int    `json:"phase"`
	Iter     int    `json:"iter"`
	Excluded string `json:"excluded"`
	ViaBack  bool   `json:"viaBack"`
	BtTried  int    `json:"btTried"`
	BtAcc    int    `json:"btAcc"`
	// Circuit is the committed design's netlist in the exact-order codec
	// (netlist.WriteExact); the element order is part of the resumable
	// state, since the ECO placement and the router are order-sensitive.
	Circuit string `json:"circuit"`
}

// optPrint is the subset of Options that shapes the sweep's behaviour —
// the checkpoint fingerprint. The resilience knobs (Journal,
// StopAfterCommits) are excluded on purpose: resuming with a different
// journal path or kill schedule is exactly the intended use.
type optPrint struct {
	P1             float64    `json:"p1"`
	MaxQ           int        `json:"maxQ"`
	MaxItersPhase  int        `json:"maxItersPhase"`
	RisingUStop    int        `json:"risingUStop"`
	Mode           synth.Mode `json:"mode"`
	BacktrackGroup int        `json:"backtrackGroup"`
	CellOrder      CellOrder  `json:"cellOrder"`
	SkipPhase1     bool       `json:"skipPhase1"`
	NoEarlyStop    bool       `json:"noEarlyStop"`
	NoVerify       bool       `json:"noVerify"`
}

func fingerprint(o Options) optPrint {
	return optPrint{
		P1: o.P1, MaxQ: o.MaxQ, MaxItersPhase: o.MaxItersPhase,
		RisingUStop: o.RisingUStop, Mode: o.Mode,
		BacktrackGroup: o.BacktrackGroup, CellOrder: o.CellOrder,
		SkipPhase1: o.SkipPhase1, NoEarlyStop: o.NoEarlyStop, NoVerify: o.NoVerify,
	}
}

// Checkpoint is the journaled resumable state of a sweep, written after
// every accepted iteration and consumed by Resume.
type Checkpoint struct {
	// CircuitName, OrigCRC and Seed identify the run the journal belongs
	// to: the original circuit's name, the CRC-32 of its exact-order
	// serialization, and the environment seed. Opt fingerprints the sweep
	// configuration. Resume refuses a journal whose identity does not
	// match the run it is asked to continue.
	CircuitName string   `json:"circuitName"`
	OrigCRC     uint32   `json:"origCRC"`
	Seed        int64    `json:"seed"`
	Opt         optPrint `json:"opt"`

	// Loop position: the continuation re-enters phase Phase of q-pass Q at
	// iteration NextIter. P2 is the phase-two bound frozen when the
	// interrupted run entered phase two (meaningful only when Phase == 2).
	Q        int     `json:"q"`
	Phase    int     `json:"phase"`
	NextIter int     `json:"nextIter"`
	P2       float64 `json:"p2"`
	// CommittedAtQ / ConstraintBlocked are the q-sweep progress flags at
	// commit time; Gen is the rebuild-generation counter, whose value the
	// continuation must keep counting from so rebuilt-gate name prefixes
	// never collide with ones already committed.
	CommittedAtQ      bool `json:"committedAtQ"`
	ConstraintBlocked bool `json:"constraintBlocked"`
	Gen               int  `json:"gen"`

	// Commits is the full accepted-iteration chain, oldest first.
	Commits []commitRecord `json:"commits"`

	// CacheEntries journals the fault-verdict cache content at commit time
	// (sorted key order). Replay alone under-populates the cache — it skips
	// the rejected candidates' analyses and the internal screens the killed
	// run performed — and provenance tier attribution is cache-history-
	// dependent, so the continuation imports this before replaying: its
	// ledger records then continue the killed run's byte for byte.
	CacheEntries []fcache.ExportedEntry `json:"cacheEntries,omitempty"`
}

// circuitText serializes a circuit with the exact-order codec.
func circuitText(c *netlist.Circuit) (string, error) {
	var b strings.Builder
	if err := netlist.WriteExact(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// origCRC fingerprints the original circuit of a run.
func origCRC(c *netlist.Circuit) (uint32, error) {
	text, err := circuitText(c)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE([]byte(text)), nil
}

// writeCheckpoint journals the current sweep state atomically. phase/iter
// name the commit that just happened; the journaled NextIter is iter+1,
// the iteration the uninterrupted run would execute next.
func (s *state) writeCheckpoint(phase, iter int, p2 float64) error {
	crc, err := origCRC(s.orig.C)
	if err != nil {
		return err
	}
	ck := &Checkpoint{
		CircuitName:       s.orig.C.Name,
		OrigCRC:           crc,
		Seed:              s.env.Seed,
		Opt:               fingerprint(s.opt),
		Q:                 s.q,
		Phase:             phase,
		NextIter:          iter + 1,
		P2:                p2,
		CommittedAtQ:      s.committedAtQ,
		ConstraintBlocked: s.constraintBlocked,
		Gen:               s.gen,
		Commits:           s.commits,
	}
	if s.env.FaultCache != nil {
		ck.CacheEntries = s.env.FaultCache.Export()
	}
	return resilience.WriteJournal(s.opt.Journal, checkpointKind, checkpointVersion, ck)
}

// decodeCheckpoint validates a journal's framing and its structural
// invariants. Split from the file read so the fuzz harness can drive it on
// raw bytes; every malformation errors cleanly (wrapping the resilience
// sentinels), never panics, and never yields a checkpoint that would
// silently resume wrong state.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := resilience.Decode(data, checkpointKind, checkpointVersion, ck); err != nil {
		return nil, err
	}
	if ck.Phase != 1 && ck.Phase != 2 {
		return nil, fmt.Errorf("%w: checkpoint phase %d", resilience.ErrCorrupt, ck.Phase)
	}
	if ck.Q < 0 || ck.Q > ck.Opt.MaxQ {
		return nil, fmt.Errorf("%w: checkpoint q %d outside sweep 0..%d", resilience.ErrCorrupt, ck.Q, ck.Opt.MaxQ)
	}
	if ck.NextIter < 1 || ck.NextIter > ck.Opt.MaxItersPhase {
		return nil, fmt.Errorf("%w: checkpoint nextIter %d outside 1..%d", resilience.ErrCorrupt, ck.NextIter, ck.Opt.MaxItersPhase)
	}
	if len(ck.Commits) == 0 {
		return nil, fmt.Errorf("%w: checkpoint has no commits (checkpoints are only written at commits)", resilience.ErrCorrupt)
	}
	if ck.Gen < len(ck.Commits) {
		return nil, fmt.Errorf("%w: checkpoint gen %d below commit count %d", resilience.ErrCorrupt, ck.Gen, len(ck.Commits))
	}
	last := ck.Commits[len(ck.Commits)-1]
	if last.Q != ck.Q || last.Phase != ck.Phase || last.Iter != ck.NextIter-1 {
		return nil, fmt.Errorf("%w: checkpoint position (q=%d phase=%d nextIter=%d) disagrees with last commit (q=%d phase=%d iter=%d)",
			resilience.ErrCorrupt, ck.Q, ck.Phase, ck.NextIter, last.Q, last.Phase, last.Iter)
	}
	for i, rec := range ck.Commits {
		if rec.Circuit == "" {
			return nil, fmt.Errorf("%w: commit %d has no circuit", resilience.ErrCorrupt, i)
		}
	}
	return ck, nil
}

// LoadCheckpoint reads and validates a sweep journal. The error
// distinguishes damage (resilience.ErrCorrupt), a foreign journal kind
// (resilience.ErrKind), and a schema mismatch (resilience.ErrVersion).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resyn: load checkpoint: %w", err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("resyn: load checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// validateFor checks that the journal belongs to this (circuit, seed,
// options) run. A mismatch means the caller is about to resume the wrong
// run — always an error, never a silent partial resume.
func (ck *Checkpoint) validateFor(env *flow.Env, orig *flow.Design, opt Options) error {
	if ck.CircuitName != orig.C.Name {
		return fmt.Errorf("resyn: checkpoint is for circuit %q, run is %q", ck.CircuitName, orig.C.Name)
	}
	crc, err := origCRC(orig.C)
	if err != nil {
		return err
	}
	if ck.OrigCRC != crc {
		return fmt.Errorf("resyn: checkpoint original-circuit fingerprint %08x does not match this run's %08x", ck.OrigCRC, crc)
	}
	if ck.Seed != env.Seed {
		return fmt.Errorf("resyn: checkpoint seed %d does not match run seed %d", ck.Seed, env.Seed)
	}
	if ck.Opt != fingerprint(opt) {
		return fmt.Errorf("resyn: checkpoint options %+v do not match run options %+v", ck.Opt, fingerprint(opt))
	}
	return nil
}

// Resume continues an interrupted sweep from its checkpoint journal,
// producing a Result byte-identical (tables, trace, telemetry rows) to the
// uninterrupted run's. orig must be the analyzed original design of the
// same circuit, environment seed, and options the journal was written
// under; mismatches are rejected. The resumed run keeps journaling to the
// same path unless opt.Journal overrides it, so a resumed run interrupted
// again resumes again.
func Resume(env *flow.Env, orig *flow.Design, path string, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if err := ck.validateFor(env, orig, opt); err != nil {
		return nil, err
	}
	if opt.Journal == "" {
		opt.Journal = path
	}
	env.Obs.Counter("resyn/resumes").Inc()
	return runSweep(env, orig, opt, ck)
}

// replay reconstructs the interrupted run's committed prefix: each
// journaled circuit is parsed and re-analyzed incrementally from its
// predecessor — the same call chain the original run used — and recorded
// through the shared commit bookkeeping, so Trace/Iters rows, the metrics
// series, and BestQ come out identical. Effort counters (SynthCalls,
// PDCalls) intentionally stay at zero for the replayed prefix: no
// synthesis happens during replay, only re-analysis.
func (s *state) replay(ck *Checkpoint) error {
	sp := obs.Start(s.env.Obs, "resyn/replay", obs.Int("commits", len(ck.Commits)))
	defer sp.End()
	// Restore the killed run's verdict cache before re-analyzing anything:
	// replay's own analyses only re-derive the committed circuits' verdicts,
	// not the rejected candidates' or the internal screens', and provenance
	// tier attribution downstream depends on exactly which verdicts are
	// cached. First-write-wins Store semantics make the import idempotent.
	if s.env.FaultCache != nil && len(ck.CacheEntries) > 0 {
		n := s.env.FaultCache.Import(ck.CacheEntries)
		s.env.Obs.Counter("resyn/cache_entries_imported").Add(int64(n))
	}
	// The ledger stays silent for the whole replayed prefix: the killed
	// run already emitted those records, so the resumed run's ledger must
	// start exactly where the killed run's stopped — their concatenation
	// (timings stripped) equals the uninterrupted run's ledger.
	ledger := s.env.Ledger
	s.env.Ledger = nil
	defer func() { s.env.Ledger = ledger }()
	for i, rec := range ck.Commits {
		if err := resilience.Err(s.env.Ctx); err != nil {
			return fmt.Errorf("resyn: resume cancelled during replay of commit %d/%d: %w", i+1, len(ck.Commits), err)
		}
		c, err := netlist.ReadExact(strings.NewReader(rec.Circuit), s.env.Lib)
		if err != nil {
			return fmt.Errorf("resyn: resume: commit %d circuit: %w (%v)", i, resilience.ErrCorrupt, err)
		}
		d, err := s.env.AnalyzeIncremental(c, s.cur)
		if err != nil {
			return fmt.Errorf("resyn: resume: re-analyzing commit %d: %w", i, err)
		}
		s.res.Recovered += d.Result.Recovered
		s.res.Quarantined += len(d.Result.Quarantined)
		s.recordCommit(d, rec)
	}
	s.commits = append(s.commits, ck.Commits...)
	s.gen = ck.Gen
	s.res.Resumed = true
	s.res.ReplayedCommits = len(ck.Commits)
	s.env.Obs.Counter("resyn/replayed_commits").Add(int64(len(ck.Commits)))
	return nil
}
