// Package vstore is the persistent, content-addressed fault-verdict store:
// fcache's 128-bit structural cone keys and per-entry CRC integrity, grown
// into an append-only on-disk segment format shared across jobs and
// processes. A warm fleet imports the store into each job's verdict cache
// before analysis (Prewarm → fcache.ImportWarm) and appends the job's
// freshly computed verdicts afterwards (Merge), so proofs paid for once are
// skipped by every later job that submits a structurally similar design.
//
// Soundness leans on exactly the properties that make fcache's reuse policy
// sound (see that package's doc): Undetectable entries are semantic facts
// about a labeled cone, and Detected entries carry a witness vector that the
// consumer replays — a stale or colliding entry fails to detect and the
// fault falls back to PODEM. The store therefore never needs invalidation;
// it only ever grows, and damage is dropped, never trusted:
//
//   - Every record carries a magic, explicit lengths, and a CRC-32 over its
//     content (fcache's record codec, which a sweep checkpoint's verdict log
//     shares). Decoding stops at the first damaged record and Open truncates
//     the segment back to its last intact byte — a torn tail from a crash
//     mid-append heals on the next open, losing only the torn record(s),
//     which the next job simply recomputes.
//   - A segment whose header is unreadable is quarantined aside wholesale
//     (renamed, not deleted) and its entries are recomputed over time.
//   - A single-writer flock serializes processes: one process owns the store
//     directory at a time; a second opener fails fast with ErrLocked rather
//     than interleaving appends.
//
// Segments rotate at a size bound so no single file grows unboundedly and a
// quarantined segment bounds the damage. Within a process the store is
// goroutine-safe.
package vstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
)

// segHeader identifies a store segment and its schema version. Bump the
// version when the record layout changes: old segments then quarantine
// instead of decoding wrong.
const segHeader = "dfmvseg v1\n"

// DefaultMaxSegBytes is the rotation bound: when the tail segment exceeds
// it, the next Merge starts a new segment.
const DefaultMaxSegBytes = 16 << 20

// ErrLocked reports that another process holds the store.
var ErrLocked = errors.New("vstore: store is locked by another process")

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Segments / Entries describe the store as loaded plus this process's
	// appends.
	Segments int
	Entries  int
	// Appended counts entries this process merged in.
	Appended int
	// HealedRecords / HealedBytes count torn or corrupt trailing records
	// truncated away at Open; QuarantinedSegs counts segments set aside
	// wholesale for an unreadable header.
	HealedRecords   int
	HealedBytes     int64
	QuarantinedSegs int
	// Prewarmed totals the entries handed to caches via Prewarm.
	Prewarmed int
}

// Store is an open verdict store: the on-disk segments under one directory,
// an in-memory copy of their entries, and the exclusive inter-process lock.
type Store struct {
	mu       sync.Mutex
	dir      string
	lock     *os.File
	tail     tailFile // current append segment
	tailN    int      // its ordinal
	tailSize int64    // its size up to the last record written and synced
	maxSeg   int64
	// entries holds every verdict in load order: the segments in ordinal
	// order, then this process's appends. Entries are only ever appended,
	// and their vectors alias the segment bytes they were decoded from.
	entries []fcache.ExportedEntry
	keys    map[fcache.Key]struct{}
	stats   Stats
}

// tailFile is what Merge needs of the append segment (an *os.File; tests
// substitute one whose writes fail).
type tailFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Open opens (creating if needed) the store directory, takes the exclusive
// lock, loads every segment — healing torn tails and quarantining unreadable
// segments — and leaves the store ready for Merge/Prewarm. A second process
// opening the same directory gets ErrLocked.
func Open(dir string) (*Store, error) {
	return OpenLimit(dir, DefaultMaxSegBytes)
}

// OpenLimit is Open with an explicit segment-rotation bound (tests use a
// tiny bound to exercise rotation).
func OpenLimit(dir string, maxSegBytes int64) (*Store, error) {
	if maxSegBytes <= 0 {
		maxSegBytes = DefaultMaxSegBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vstore: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("%w (%s)", ErrLocked, dir)
	}
	s := &Store{
		dir:    dir,
		lock:   lock,
		maxSeg: maxSegBytes,
		keys:   make(map[fcache.Key]struct{}),
	}
	if err := s.load(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// segPath names segment n.
func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.vseg", n))
}

// load scans the segment files in ordinal order, healing as it goes, and
// opens the highest one for appending.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.vseg"))
	if err != nil {
		return fmt.Errorf("vstore: %w", err)
	}
	sort.Strings(names)
	maxN := 0
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.vseg", &n); err != nil {
			continue // foreign file; leave it alone
		}
		if n > maxN {
			maxN = n
		}
		if err := s.loadSegment(name); err != nil {
			return err
		}
	}
	if maxN == 0 {
		return s.startSegment(1)
	}
	// Append to the highest segment (possibly just truncated back to a
	// healthy prefix by loadSegment). If that very segment was quarantined,
	// start a fresh one after it — ordinals never move backwards, so a
	// future un-quarantine cannot collide.
	f, err := os.OpenFile(s.segPath(maxN), os.O_WRONLY|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		return s.startSegment(maxN + 1)
	}
	if err != nil {
		return fmt.Errorf("vstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("vstore: %w", err)
	}
	s.tail, s.tailN, s.tailSize = f, maxN, st.Size()
	return nil
}

// loadSegment reads one segment, indexes its intact records, truncates a
// damaged tail in place, and quarantines the file wholesale when even the
// header is wrong.
func (s *Store) loadSegment(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("vstore: %w", err)
	}
	entries, goodLen, ok := DecodeSegment(data)
	if !ok {
		// Not a v1 segment at all: set it aside for a human (or a future
		// reader version) instead of deleting evidence, and recompute.
		s.stats.QuarantinedSegs++
		if err := os.Rename(name, name+".quarantine"); err != nil {
			return fmt.Errorf("vstore: quarantine %s: %w", name, err)
		}
		return nil
	}
	if goodLen < len(data) {
		// Torn or corrupt tail: drop it. The lost records are recomputed by
		// the next job that needs them — dropping is always sound, trusting
		// damaged bytes never is.
		s.stats.HealedRecords++
		s.stats.HealedBytes += int64(len(data) - goodLen)
		if err := os.Truncate(name, int64(goodLen)); err != nil {
			return fmt.Errorf("vstore: heal %s: %w", name, err)
		}
	}
	s.stats.Segments++
	s.index(entries)
	return nil
}

// index adds the entries whose keys the store has not seen.
func (s *Store) index(entries []fcache.ExportedEntry) {
	for _, e := range entries {
		if _, dup := s.keys[e.Key]; dup {
			continue
		}
		s.keys[e.Key] = struct{}{}
		s.entries = append(s.entries, e)
	}
}

// startSegment creates segment n (which must not exist) and makes it the
// append tail.
func (s *Store) startSegment(n int) error {
	f, err := os.OpenFile(s.segPath(n), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("vstore: %w", err)
	}
	if _, err := f.WriteString(segHeader); err != nil {
		f.Close()
		return fmt.Errorf("vstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("vstore: %w", err)
	}
	if s.tail != nil {
		s.tail.Close()
	}
	s.tail, s.tailN, s.tailSize = f, n, int64(len(segHeader))
	s.stats.Segments++
	return nil
}

// DecodeSegment decodes a segment image. ok is false when the header is not
// this version's (the caller quarantines the file). Otherwise it returns
// every intact record plus goodLen, the byte offset of the first damaged
// record (== len(data) for a fully intact segment) — the truncation point
// for self-healing. Exported for the fuzz harness: it must never panic and
// never return a record whose checksum did not verify.
func DecodeSegment(data []byte) (entries []fcache.ExportedEntry, goodLen int, ok bool) {
	if len(data) < len(segHeader) || string(data[:len(segHeader)]) != segHeader {
		return nil, 0, false
	}
	entries, n := fcache.DecodeRecords(data[len(segHeader):])
	return entries, len(segHeader) + n, true
}

// Merge appends every entry whose key the store has not seen, fsyncs the
// tail, and rotates segments past the size bound. It returns how many
// entries were appended. Entries with invalid statuses or zero keys are
// skipped (the decoder would reject them anyway). The appended entries join
// the store's index only once they are on disk: after a failed write or
// sync the tail is cut back to its last good size and the store is as it
// was, so a retry appends them again.
func (s *Store) Merge(entries []fcache.ExportedEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	var batch map[fcache.Key]struct{}
	for _, e := range entries {
		if e.Key.Zero() {
			continue
		}
		if e.Status != fault.Detected && e.Status != fault.Undetectable {
			continue
		}
		if int64(len(e.Init))+int64(len(e.Vec)) > fcache.MaxVecLen {
			continue
		}
		if _, dup := s.keys[e.Key]; dup {
			continue
		}
		if _, dup := batch[e.Key]; dup {
			continue
		}
		if batch == nil {
			batch = make(map[fcache.Key]struct{})
		}
		batch[e.Key] = struct{}{}
		buf = fcache.AppendRecord(buf, e)
	}
	if len(buf) == 0 {
		return 0, nil
	}
	if s.tailSize > s.maxSeg {
		if err := s.startSegment(s.tailN + 1); err != nil {
			return 0, err
		}
	}
	if err := s.append(buf); err != nil {
		return 0, err
	}
	// Index the records from the bytes just written, exactly as the next
	// Open will load them.
	added, _ := fcache.DecodeRecords(buf)
	s.index(added)
	s.stats.Appended += len(added)
	return len(added), nil
}

// append writes buf at the tail and fsyncs it. On failure it cuts the tail
// back to its last good size: a torn record left in place would make the
// next Open's healing truncate every later append together with it. If even
// the cut fails, later appends go to a new segment instead.
func (s *Store) append(buf []byte) error {
	_, err := s.tail.Write(buf)
	if err == nil {
		err = s.tail.Sync()
	}
	if err == nil {
		s.tailSize += int64(len(buf))
		return nil
	}
	if terr := s.tail.Truncate(s.tailSize); terr != nil {
		err = errors.Join(err, terr, s.startSegment(s.tailN+1))
	}
	return fmt.Errorf("vstore: append: %w", err)
}

// Prewarm imports the store's entries into a verdict cache as warm entries
// (hits on them count into fcache.Stats.WarmHits), in load order, and returns
// how many landed. An empty store is a free no-op, so a cold fleet's first
// job runs exactly as if no store existed.
func (s *Store) Prewarm(c *fcache.Cache) int {
	// Entries are append-only and never modified, so the prefix loaded so
	// far can be read after the lock is released.
	s.mu.Lock()
	entries := s.entries[:len(s.entries):len(s.entries)]
	s.mu.Unlock()
	n := c.ImportWarm(entries)
	s.mu.Lock()
	s.stats.Prewarmed += n
	s.mu.Unlock()
	return n
}

// Len returns the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.keys)
	return st
}

// Close syncs and closes the tail segment and releases the inter-process
// lock. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.tail != nil {
		if err := s.tail.Sync(); err != nil && first == nil {
			first = err
		}
		if err := s.tail.Close(); err != nil && first == nil {
			first = err
		}
		s.tail = nil
	}
	if s.lock != nil {
		syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		if err := s.lock.Close(); err != nil && first == nil {
			first = err
		}
		s.lock = nil
	}
	return first
}
