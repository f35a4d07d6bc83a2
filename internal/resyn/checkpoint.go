package resyn

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
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
// The one exception is the verdict cache, whose content depends on every
// analysis the run made, rejected candidates included. It lives in a
// verdict log beside the journal: the cache's entries in store order, in
// fcache's record codec, append-only. Each commit appends the verdicts
// stored since the previous commit and fsyncs them, and only then replaces
// the journal, which names the log and the length and CRC-32 of the prefix
// it vouches for. A crash between the two leaves bytes past that prefix,
// which the loader ignores and a resume cuts off before appending again. If
// the cache dropped or damaged an entry that the log already holds, the
// commit writes the whole cache into a new log under the journal's other
// log name instead, and the previous log is deleted once the journal naming
// the new one has landed.
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
	checkpointVersion = 3 // v3: the verdict cache lives in a verdict log beside the journal
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

	// VerdictLog names the sweep's verdict log, a file in the journal's
	// directory. LogBytes and LogCRC are the length and CRC-32 of the log
	// prefix this journal vouches for, which holds the fault-verdict cache's
	// content at commit time. Replay alone under-populates the cache — it
	// skips the rejected candidates' analyses and the internal screens the
	// killed run performed — and provenance tier attribution is cache-
	// history-dependent, so the continuation imports these verdicts before
	// replaying: its ledger records then continue the killed run's byte for
	// byte.
	VerdictLog string `json:"verdictLog"`
	LogBytes   int64  `json:"logBytes"`
	LogCRC     uint32 `json:"logCRC"`

	// verdicts are the entries decoded from the log prefix, and path and
	// logPath the journal's and the log's paths; LoadCheckpoint fills them.
	verdicts []fcache.ExportedEntry
	path     string
	logPath  string
}

// logNames returns the two file names a journal's verdict log takes: a new
// log always goes under the one the current log does not use, so the log
// the last journal names stays intact until a journal naming the new one
// replaces it.
func logNames(journal string) [2]string {
	j := filepath.Clean(journal)
	return [2]string{j + ".vlog", j + ".1.vlog"}
}

// otherLog returns the journal's log name that is not path.
func otherLog(journal, path string) string {
	names := logNames(journal)
	if path == names[0] {
		return names[1]
	}
	return names[0]
}

// RemoveCheckpoint deletes a sweep journal and its verdict logs. Files that
// do not exist are not an error.
func RemoveCheckpoint(path string) error {
	names := logNames(path)
	var errs []error
	for _, p := range []string{path, names[0], names[1]} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// verdictLog is the writing side of a sweep's verdict log.
type verdictLog struct {
	f    *os.File
	path string
	size int64       // bytes written and fsynced
	crc  uint32      // CRC-32 of those bytes
	mark fcache.Mark // the end of the cache content the log holds
	buf  []byte      // encode buffer, reused across commits
}

// logChunk bounds the encode buffer: records are written in chunks of
// about this size.
const logChunk = 256 << 10

// restart begins a new, empty log under the journal's log name the current
// log does not use.
func (l *verdictLog) restart(journal string) error {
	path := otherLog(journal, l.path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resyn: verdict log: %w", err)
	}
	l.close()
	l.f, l.path, l.size, l.crc = f, path, 0, 0
	return nil
}

// sync brings the log up to the cache's content: it appends the entries
// stored since the last call, or — at a fresh run's first commit, or after
// the cache dropped or damaged an entry an older record holds — writes the
// whole content into a new log. The bytes are fsynced before it returns, so
// a journal written afterwards only ever names durable bytes. It returns
// how many records it wrote and whether it started a new log.
func (l *verdictLog) sync(journal string, c *fcache.Cache) (records int, restarted bool, err error) {
	entries, next, full := c.Since(l.mark)
	if full {
		if err := l.restart(journal); err != nil {
			return 0, false, err
		}
	}
	size, crc := l.size, l.crc
	buf := l.buf[:0]
	for i, e := range entries {
		buf = fcache.AppendRecord(buf, e)
		if len(buf) < logChunk && i < len(entries)-1 {
			continue
		}
		if _, err := l.f.Write(buf); err != nil {
			return 0, false, fmt.Errorf("resyn: verdict log: %w", err)
		}
		size += int64(len(buf))
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		buf = buf[:0]
	}
	l.buf = buf
	if err := l.f.Sync(); err != nil {
		return 0, false, fmt.Errorf("resyn: verdict log: %w", err)
	}
	l.size, l.crc, l.mark = size, crc, next
	return len(entries), full, nil
}

// resume continues the log a loaded checkpoint names, if it is one of this
// journal's logs and the cache, after importing it, holds exactly its keys:
// the file is cut back to the journaled prefix — bytes past it come from a
// commit whose journal never landed — and later commits append after it.
// Otherwise the log stays closed and the first commit starts a new one.
func (l *verdictLog) resume(ck *Checkpoint, journal string, c *fcache.Cache) error {
	names := logNames(journal)
	if (ck.logPath != names[0] && ck.logPath != names[1]) || c.Len() != len(ck.verdicts) {
		return nil
	}
	f, err := os.OpenFile(ck.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("resyn: resume verdict log: %w", err)
	}
	if err := f.Truncate(ck.LogBytes); err != nil {
		f.Close()
		return fmt.Errorf("resyn: resume verdict log: %w", err)
	}
	l.close()
	l.f, l.path, l.size, l.crc, l.mark = f, ck.logPath, ck.LogBytes, ck.LogCRC, c.Mark()
	return nil
}

// close releases the log file; the bytes that matter are already synced.
func (l *verdictLog) close() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
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
	records, restarted, err := s.vlog.sync(s.opt.Journal, s.env.FaultCache)
	if err != nil {
		return err
	}
	s.env.Obs.Counter("resyn/verdicts_journaled").Add(int64(records))
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
		VerdictLog:        filepath.Base(s.vlog.path),
		LogBytes:          s.vlog.size,
		LogCRC:            s.vlog.crc,
	}
	if err := resilience.WriteJournal(s.opt.Journal, checkpointKind, checkpointVersion, ck); err != nil {
		return err
	}
	if restarted {
		// The journal names the new log now. The other name holds the log
		// the previous journal named, or a leftover of an earlier run; if
		// the removal fails, the next restart truncates it anyway.
		_ = os.Remove(otherLog(s.opt.Journal, s.vlog.path))
	}
	return nil
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

// decodeWithLog decodes a journal and then the verdict log it names, read
// through readLog: the log must hold the journaled prefix in full, match its
// CRC-32, and decode into intact records end to end. Bytes past the prefix
// are ignored. Every failure wraps resilience.ErrCorrupt.
func decodeWithLog(data []byte, readLog func(name string) ([]byte, error)) (*Checkpoint, error) {
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	name := ck.VerdictLog
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return nil, fmt.Errorf("%w: verdict log name %q is not a file name", resilience.ErrCorrupt, name)
	}
	log, err := readLog(name)
	if err != nil {
		return nil, fmt.Errorf("%w: verdict log: %v", resilience.ErrCorrupt, err)
	}
	if ck.LogBytes < 0 || ck.LogBytes > int64(len(log)) {
		return nil, fmt.Errorf("%w: verdict log %s is %d bytes, the journal vouches for %d",
			resilience.ErrCorrupt, name, len(log), ck.LogBytes)
	}
	prefix := log[:ck.LogBytes]
	if sum := crc32.ChecksumIEEE(prefix); sum != ck.LogCRC {
		return nil, fmt.Errorf("%w: verdict log %s prefix checksum %08x, journal says %08x",
			resilience.ErrCorrupt, name, sum, ck.LogCRC)
	}
	entries, good := fcache.DecodeRecords(prefix)
	if good != len(prefix) {
		return nil, fmt.Errorf("%w: verdict log %s has a damaged record at byte %d", resilience.ErrCorrupt, name, good)
	}
	ck.verdicts = entries
	return ck, nil
}

// LoadCheckpoint reads and validates a sweep journal and the verdict log
// prefix it names. The error distinguishes damage (resilience.ErrCorrupt,
// also for a missing, short or altered log), a foreign journal kind
// (resilience.ErrKind), and a schema mismatch (resilience.ErrVersion).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resyn: load checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	ck, err := decodeWithLog(data, func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, name))
	})
	if err != nil {
		return nil, fmt.Errorf("resyn: load checkpoint %s: %w", path, err)
	}
	ck.path, ck.logPath = path, filepath.Join(dir, ck.VerdictLog)
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

// Resume continues an interrupted sweep from a checkpoint LoadCheckpoint
// returned, producing a Result byte-identical (tables, trace, telemetry rows)
// to the uninterrupted run's. orig must be the analyzed original design of
// the same circuit, environment seed, and options the journal was written
// under; mismatches are rejected. The resumed run keeps journaling to the
// path ck was loaded from unless opt.Journal overrides it, so a resumed run
// interrupted again resumes again.
func Resume(env *flow.Env, orig *flow.Design, ck *Checkpoint, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := ck.validateFor(env, orig, opt); err != nil {
		return nil, err
	}
	if opt.Journal == "" {
		opt.Journal = ck.path
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
	n := s.env.FaultCache.Import(ck.verdicts)
	s.env.Obs.Counter("resyn/cache_entries_imported").Add(int64(n))
	if err := s.vlog.resume(ck, s.opt.Journal, s.env.FaultCache); err != nil {
		return err
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
