// The run flight recorder: a deterministic, append-only JSONL ledger that
// records one provenance event per fault verdict — which engine tier decided
// the fault, at what search cost — plus one stage record per analysis and
// one iter record per accepted resynthesis iteration.
//
// Determinism contract: every field except the timing fields ("us") is a
// pure function of (circuit, configuration, cache content). The canonical
// form of a ledger — each record re-encoded with its timing zeroed, summary
// records dropped — is therefore byte-identical at any worker count, and a
// run killed after iteration k and resumed produces two ledgers whose
// canonical concatenation equals the uninterrupted run's. The SHA-256 digest
// in the trailing summary record covers exactly that canonical form, so two
// runs agree iff their digests agree.
//
// The Ledger follows the package's "nil means off, and off is free"
// contract: every method is a no-op on a nil receiver, so the engine emits
// unconditionally and a run without -ledger pays only nil checks.
package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Tier names the engine tier that decided a fault's verdict. Exactly one
// tier decides each fault:
//
//	cache       a trusted Undetectable verdict from the fault-verdict
//	            cache, or a detection while replaying cached witnesses
//	implic      the static implication screen proved it undetectable with
//	            zero searches
//	collateral  detected by simulation without its own search — a random-
//	            phase pattern or a test another fault's search emitted
//	podem       its own PODEM search decided it (including quarantined
//	            searches, which end Aborted)
//	sat         a fresh CDCL escalation solved it after PODEM gave up
//	sat-memo    a within-run memoized undetectability proof of a
//	            cone-isomorphic fault settled it
type Tier string

// The provenance tiers, in pipeline order.
const (
	TierCache      Tier = "cache"
	TierImplic     Tier = "implic"
	TierCollateral Tier = "collateral"
	TierPodem      Tier = "podem"
	TierSAT        Tier = "sat"
	TierSATMemo    Tier = "sat-memo"
)

// TierCounts is a per-tier verdict count — the provenance breakdown of one
// analysis stage or resynthesis iteration.
type TierCounts struct {
	Cache      int `json:"cache,omitempty"`
	Implic     int `json:"implic,omitempty"`
	Collateral int `json:"collateral,omitempty"`
	Podem      int `json:"podem,omitempty"`
	SAT        int `json:"sat,omitempty"`
	SATMemo    int `json:"sat_memo,omitempty"`
}

// Add counts one verdict decided by the given tier (unknown tiers are
// ignored — they can only come from a decoded foreign ledger).
func (t *TierCounts) Add(tier Tier) {
	switch tier {
	case TierCache:
		t.Cache++
	case TierImplic:
		t.Implic++
	case TierCollateral:
		t.Collateral++
	case TierPodem:
		t.Podem++
	case TierSAT:
		t.SAT++
	case TierSATMemo:
		t.SATMemo++
	}
}

// Merge accumulates another breakdown into t.
func (t *TierCounts) Merge(o TierCounts) {
	t.Cache += o.Cache
	t.Implic += o.Implic
	t.Collateral += o.Collateral
	t.Podem += o.Podem
	t.SAT += o.SAT
	t.SATMemo += o.SATMemo
}

// Total sums the breakdown.
func (t TierCounts) Total() int {
	return t.Cache + t.Implic + t.Collateral + t.Podem + t.SAT + t.SATMemo
}

// LedgerRecord is the decoded form of one ledger line, flat across the four
// record types; T discriminates. Fields not belonging to the record's type
// stay at their zero values.
type LedgerRecord struct {
	T string `json:"t"` // "stage", "verdict", "iter" or "summary"

	// Stage records: one per analysis (label "analyze", "analyze-incr" or
	// "verify"), emitted before its verdicts.
	Stage        string     `json:"stage,omitempty"`
	Circuit      string     `json:"circuit,omitempty"`
	Gates        int        `json:"gates,omitempty"`
	Faults       int        `json:"faults,omitempty"`
	Detected     int        `json:"detected,omitempty"`
	Undetectable int        `json:"undetectable,omitempty"`
	Aborted      int        `json:"aborted,omitempty"`
	Tiers        TierCounts `json:"tiers,omitempty"`
	Searches     int64      `json:"searches,omitempty"`
	Backtracks   int64      `json:"backtracks,omitempty"`
	Conflicts    int64      `json:"conflicts,omitempty"`

	// Verdict records: one per fault, in fault-ID order within a stage.
	Fault  int    `json:"fault,omitempty"`
	Status string `json:"status,omitempty"`
	Tier   Tier   `json:"tier,omitempty"`
	BT     int    `json:"bt,omitempty"`
	Conf   int64  `json:"conf,omitempty"`

	// Iter records: one per accepted resynthesis iteration.
	Q     int `json:"q,omitempty"`
	Phase int `json:"phase,omitempty"`
	Iter  int `json:"iter,omitempty"`
	U     int `json:"u,omitempty"`
	Smax  int `json:"smax,omitempty"`
	F     int `json:"f,omitempty"`

	// Micros is wall-clock cost (stage wall time, or one search's cost).
	// It is the one field excluded from the canonical form and the digest.
	Micros int64 `json:"us,omitempty"`

	// Summary record (written by Close, excluded from the digest): the
	// event count and the SHA-256 digest of the canonical ledger.
	Events int    `json:"events,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// Record type discriminators.
const (
	recStage   = "stage"
	recVerdict = "verdict"
	recIter    = "iter"
	recSummary = "summary"
)

// encodeRecord appends rec's canonical line — its JSON with the timing field
// omitted, no trailing newline — to dst. It is the ledger's one encoder: the
// writer's digest input, its file line (withTiming adds the timing) and a
// reader's canonical form all come from it, so a reader recomputes the
// writer's digest by construction. Each record type has a fixed field order,
// and the bytes equal encoding/json's rendering of the typed record shapes
// kept in the tests as its oracle (FuzzLedger, TestEncodeRecordMatchesJSON).
func encodeRecord(dst []byte, rec LedgerRecord) ([]byte, error) {
	switch rec.T {
	case recStage:
		dst = append(dst, `{"t":"stage","stage":`...)
		dst = appendString(dst, rec.Stage)
		dst = append(dst, `,"circuit":`...)
		dst = appendString(dst, rec.Circuit)
		dst = appendInt(dst, "gates", int64(rec.Gates))
		dst = appendInt(dst, "faults", int64(rec.Faults))
		dst = appendInt(dst, "detected", int64(rec.Detected))
		dst = appendInt(dst, "undetectable", int64(rec.Undetectable))
		dst = appendInt(dst, "aborted", int64(rec.Aborted))
		dst = appendTiers(dst, rec.Tiers)
		dst = appendInt(dst, "searches", rec.Searches)
		dst = appendInt(dst, "backtracks", rec.Backtracks)
		dst = appendInt(dst, "conflicts", rec.Conflicts)
	case recVerdict:
		dst = append(dst, `{"t":"verdict"`...)
		dst = appendInt(dst, "fault", int64(rec.Fault))
		dst = append(dst, `,"status":`...)
		dst = appendString(dst, rec.Status)
		dst = append(dst, `,"tier":`...)
		dst = appendString(dst, string(rec.Tier))
		if rec.BT != 0 {
			dst = appendInt(dst, "bt", int64(rec.BT))
		}
		if rec.Conf != 0 {
			dst = appendInt(dst, "conf", rec.Conf)
		}
	case recIter:
		dst = append(dst, `{"t":"iter"`...)
		dst = appendInt(dst, "q", int64(rec.Q))
		dst = appendInt(dst, "phase", int64(rec.Phase))
		dst = appendInt(dst, "iter", int64(rec.Iter))
		dst = appendInt(dst, "u", int64(rec.U))
		dst = appendInt(dst, "smax", int64(rec.Smax))
		dst = appendInt(dst, "f", int64(rec.F))
		dst = appendTiers(dst, rec.Tiers)
	case recSummary:
		dst = append(dst, `{"t":"summary"`...)
		dst = appendInt(dst, "events", int64(rec.Events))
		dst = append(dst, `,"digest":`...)
		dst = appendString(dst, rec.Digest)
	default:
		return dst, fmt.Errorf("obs: ledger record type %q", rec.T)
	}
	return append(dst, '}'), nil
}

// withTiming turns a canonical line into its file line. Stage and verdict
// records carry timing, as their last field and only when it is nonzero, so
// the file line is the canonical line plus `,"us":N`.
func withTiming(line []byte, rec LedgerRecord) []byte {
	if rec.Micros == 0 || (rec.T != recStage && rec.T != recVerdict) {
		return line
	}
	line = append(line[:len(line)-1], `,"us":`...)
	line = strconv.AppendInt(line, rec.Micros, 10)
	return append(line, '}')
}

// appendInt appends one `,"key":v` member.
func appendInt(dst []byte, key string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

// appendTiers appends the `,"tiers":{…}` member; zero counts are omitted.
func appendTiers(dst []byte, t TierCounts) []byte {
	dst = append(dst, `,"tiers":`...)
	sep := byte('{')
	for _, m := range [...]struct {
		key string
		n   int
	}{
		{"cache", t.Cache}, {"implic", t.Implic}, {"collateral", t.Collateral},
		{"podem", t.Podem}, {"sat", t.SAT}, {"sat_memo", t.SATMemo},
	} {
		if m.n == 0 {
			continue
		}
		dst = append(dst, sep, '"')
		dst = append(dst, m.key...)
		dst = append(dst, '"', ':')
		dst = strconv.AppendInt(dst, int64(m.n), 10)
		sep = ','
	}
	if sep == '{' {
		dst = append(dst, sep)
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes — `"`, `\` and the HTML-sensitive <, >
// and & — is copied as is. Any other string is left to encoding/json, so
// control characters, U+2028/2029 and invalid UTF-8 encode exactly as
// json.Marshal renders them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ledgerTail bounds the in-memory ring of recent lines served by the /ledger
// debug endpoint.
const ledgerTail = 512

// Ledger is the append-only run flight recorder. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Ledger struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // non-nil when the ledger owns the file
	f      *os.File  // sync target when the ledger owns a file
	h      hash.Hash // SHA-256 over the canonical lines
	events int
	err    error // first write/encode error; sticky
	closed bool

	buf  []byte   // the line being appended, reused across records
	tail [][]byte // ring of the most recent lines; slots reuse their storage
	next int      // the slot the next line overwrites once the ring is full
	subs []chan string
}

// NewLedger wraps an arbitrary writer (a buffer in tests, a pipe in a
// server) as a ledger. Close flushes but does not close the writer.
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: bufio.NewWriter(w), h: sha256.New()}
}

// CreateLedger creates (truncating) the ledger file at path. Close flushes
// and closes it.
func CreateLedger(path string) (*Ledger, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create ledger: %w", err)
	}
	l := NewLedger(f)
	l.c = f
	l.f = f
	return l, nil
}

// append encodes and writes one record, feeding the digest (summary records
// excluded), the tail ring, and any followers.
func (l *Ledger) append(rec LedgerRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(rec)
}

// appendLocked is append with l.mu held. The record is encoded once: the
// canonical line feeds the digest, and the file line is that line plus the
// record's timing.
func (l *Ledger) appendLocked(rec LedgerRecord) {
	if l.closed || l.err != nil {
		return
	}
	if err := l.fold(rec); err != nil {
		l.err = err
		return
	}
	l.buf = append(withTiming(l.buf, rec), '\n')
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = fmt.Errorf("obs: ledger write: %w", err)
		return
	}
	// Durability barrier at every iter record: the resynthesis loop writes
	// its checkpoint journal right after emitting the commit's iter record,
	// and crash recovery truncates the on-disk ledger at the checkpoint's
	// commit count — so the iter record (and everything before it) must be
	// on disk before the checkpoint that references it can land. Without
	// this, a SIGKILL can lose up to a bufio buffer of records that the
	// checkpoint claims were written.
	if rec.T == recIter {
		if err := l.w.Flush(); err != nil {
			l.err = fmt.Errorf("obs: ledger flush: %w", err)
			return
		}
		if l.f != nil {
			if err := l.f.Sync(); err != nil {
				l.err = fmt.Errorf("obs: ledger sync: %w", err)
				return
			}
		}
	}
	line := l.buf[:len(l.buf)-1]
	if len(l.tail) < ledgerTail {
		l.tail = append(l.tail, append([]byte(nil), line...))
	} else {
		l.tail[l.next] = append(l.tail[l.next][:0], line...)
		l.next = (l.next + 1) % ledgerTail
	}
	if len(l.subs) == 0 {
		return
	}
	s := string(line)
	for _, ch := range l.subs {
		select {
		case ch <- s:
		default: // a stalled follower drops lines rather than stalling the run
		}
	}
}

// fold encodes rec's canonical line into l.buf and, unless rec is a summary
// record, feeds it to the running digest and counts it. The caller holds
// l.mu or has not shared l yet.
func (l *Ledger) fold(rec LedgerRecord) error {
	line, err := encodeRecord(l.buf[:0], rec)
	if err != nil {
		return err
	}
	if rec.T != recSummary {
		line = append(line, '\n')
		l.h.Write(line)
		line = line[:len(line)-1]
		l.events++
	}
	l.buf = line
	return nil
}

// ResumeLedger continues the ledger file at path after a checkpoint taken at
// its iters-th iter record. The records through that one are kept and folded
// into the running digest and event count; the file is cut off right after
// that record's line, since later records belong to work the resumed run
// redoes, and is reopened for appending. Digest, Events and the summary Close
// writes then cover the whole file. Fewer than iters iter records, a line
// ReadLedger refuses before the cut, or a cut line without its newline is an
// error, and the file is left as it was.
func ResumeLedger(path string, iters int) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("obs: resume ledger: %w", err)
	}
	l := NewLedger(f)
	l.c, l.f = f, f
	sc := newLedgerScanner(f)
	seen := 0
	for seen < iters && err == nil && sc.next() {
		if sc.rec.T == recIter {
			seen++
		}
		err = l.fold(sc.rec)
	}
	switch {
	case err != nil:
	case sc.err != nil:
		err = sc.err
	case seen < iters:
		err = fmt.Errorf("%d iter records, want %d", seen, iters)
	case !sc.nl:
		err = errors.New("the cut line has no newline")
	default:
		err = f.Truncate(sc.end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: resume ledger %s: %w", path, err)
	}
	return l, nil
}

// Stage records one analysis stage's summary. Emit it before the stage's
// verdicts; rec.T is set by the ledger.
func (l *Ledger) Stage(rec LedgerRecord) {
	if l == nil {
		return
	}
	rec.T = recStage
	l.append(rec)
}

// Verdict records one fault's provenance event.
func (l *Ledger) Verdict(rec LedgerRecord) {
	if l == nil {
		return
	}
	rec.T = recVerdict
	l.append(rec)
}

// Iter records one accepted resynthesis iteration.
func (l *Ledger) Iter(rec LedgerRecord) {
	if l == nil {
		return
	}
	rec.T = recIter
	l.append(rec)
}

// Events returns the number of digested records appended so far.
func (l *Ledger) Events() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events
}

// Digest returns the hex SHA-256 of the canonical ledger so far.
func (l *Ledger) Digest() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("%x", l.h.Sum(nil))
}

// Err returns the first write or encode error (sticky; nil on a nil ledger).
func (l *Ledger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Tail returns a copy of the most recent lines, oldest first (the /ledger
// endpoint's dump).
func (l *Ledger) Tail() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for i := range l.tail {
		out = append(out, string(l.tail[(l.next+i)%len(l.tail)]))
	}
	return out
}

// Follow subscribes to lines appended after the call. The channel closes
// when the ledger does; cancel unsubscribes early. A follower that falls
// behind misses lines instead of blocking the run. nil ledger: a closed
// channel and a no-op cancel.
func (l *Ledger) Follow() (<-chan string, func()) {
	if l == nil {
		ch := make(chan string)
		close(ch)
		return ch, func() {}
	}
	ch := make(chan string, 256)
	l.mu.Lock()
	if l.closed {
		close(ch)
		l.mu.Unlock()
		return ch, func() {}
	}
	l.subs = append(l.subs, ch)
	l.mu.Unlock()
	cancel := func() {
		l.mu.Lock()
		for i, c := range l.subs {
			if c == ch {
				l.subs = append(l.subs[:i], l.subs[i+1:]...)
				close(ch)
				break
			}
		}
		l.mu.Unlock()
	}
	return ch, cancel
}

// Close writes the trailing summary record (event count + digest), flushes,
// closes the file when the ledger owns one, and closes every follower. It
// returns the first error the ledger hit. Closing twice, or a nil ledger,
// is a no-op.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.appendLocked(LedgerRecord{T: recSummary, Events: l.events, Digest: fmt.Sprintf("%x", l.h.Sum(nil))})
	l.closed = true
	if ferr := l.w.Flush(); ferr != nil && l.err == nil {
		l.err = fmt.Errorf("obs: ledger flush: %w", ferr)
	}
	if l.c != nil {
		if cerr := l.c.Close(); cerr != nil && l.err == nil {
			l.err = fmt.Errorf("obs: ledger close: %w", cerr)
		}
	}
	for _, ch := range l.subs {
		close(ch)
	}
	l.subs = nil
	return l.err
}

// maxLedgerLine bounds one ledger line for the decoder — far above anything
// the writer emits, low enough that a hostile input cannot balloon memory.
const maxLedgerLine = 1 << 20

// ledgerScanner is the ledger's one line decoder, shared by ReadLedger and
// ResumeLedger. Blank lines are skipped; invalid JSON, an unknown record type
// or an oversized line ends the scan with err set.
type ledgerScanner struct {
	sc   *bufio.Scanner
	rec  LedgerRecord // the current record
	end  int64        // byte offset just past the current record's line
	nl   bool         // the current record's line ends in a newline
	line int          // the current line's number
	err  error
}

func newLedgerScanner(r io.Reader) *ledgerScanner {
	s := &ledgerScanner{sc: bufio.NewScanner(r)}
	s.sc.Buffer(make([]byte, 0, 64*1024), maxLedgerLine)
	s.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			s.end += int64(adv)
			s.nl = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	return s
}

// next advances to the next record; false means the stream ended or err is
// set.
func (s *ledgerScanner) next() bool {
	for s.sc.Scan() {
		s.line++
		if len(s.sc.Bytes()) == 0 {
			continue
		}
		s.rec = LedgerRecord{}
		if err := json.Unmarshal(s.sc.Bytes(), &s.rec); err != nil {
			s.err = fmt.Errorf("obs: ledger line %d: %w", s.line, err)
			return false
		}
		switch s.rec.T {
		case recStage, recVerdict, recIter, recSummary:
			return true
		}
		s.err = fmt.Errorf("obs: ledger line %d: unknown record type %q", s.line, s.rec.T)
		return false
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("obs: ledger line %d: %w", s.line+1, err)
	}
	return false
}

// ReadLedger decodes a JSONL ledger stream. Unknown record types, invalid
// JSON, and oversized lines are errors; blank lines are skipped. The decoder
// never panics on malformed input (pinned by FuzzLedger).
func ReadLedger(r io.Reader) ([]LedgerRecord, error) {
	sc := newLedgerScanner(r)
	var recs []LedgerRecord
	for sc.next() {
		recs = append(recs, sc.rec)
	}
	if sc.err != nil {
		return nil, sc.err
	}
	return recs, nil
}

// CanonicalLedger re-encodes decoded records into the canonical byte form:
// timings dropped and summary records dropped. Two ledgers are equivalent —
// same verdicts, same tiers, same stage and iteration structure — iff their
// canonical forms are equal, which is also exactly what the digest covers:
// the canonical form of a killed run's ledger concatenated with its resumed
// continuation's equals the uninterrupted run's.
func CanonicalLedger(recs []LedgerRecord) ([]byte, error) {
	var out []byte
	for _, rec := range recs {
		if rec.T == recSummary {
			continue
		}
		var err error
		if out, err = encodeRecord(out, rec); err != nil {
			return nil, err
		}
		out = append(out, '\n')
	}
	return out, nil
}

// LedgerDigest recomputes the canonical digest of decoded records — equal to
// the writer's Digest() (and its summary record) for an unmodified ledger.
func LedgerDigest(recs []LedgerRecord) (string, error) {
	l := NewLedger(io.Discard)
	for _, rec := range recs {
		if err := l.fold(rec); err != nil {
			return "", err
		}
	}
	return l.Digest(), nil
}

// SlowSearch identifies one of a run's costliest searches: the fault, the
// tier that finally decided it, and the wall micros its search spent
// (PODEM plus any escalation).
type SlowSearch struct {
	Fault      int
	Tier       Tier
	Backtracks int
	Micros     int64
}

// ledgerEpoch anchors NowMicros. Only differences of NowMicros values are
// meaningful.
var ledgerEpoch = time.Now()

// NowMicros returns wall micros since an arbitrary process epoch. It exists
// so the deterministic engine packages (which the vetdfm suite bans from
// reading the clock directly) can stamp the ledger's timing fields — the
// fields the canonical form and digest exclude — without owning a clock.
func NowMicros() int64 {
	return time.Since(ledgerEpoch).Microseconds()
}
