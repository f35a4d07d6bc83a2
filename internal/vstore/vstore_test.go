package vstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
)

// mkEntries builds n distinct deterministic entries: even indices detected
// (with witness vectors), odd undetectable.
func mkEntries(base uint64, n int) []fcache.ExportedEntry {
	out := make([]fcache.ExportedEntry, 0, n)
	for i := 0; i < n; i++ {
		k := fcache.Key{base + uint64(i) + 1, ^(base + uint64(i))}
		e := fcache.ExportedEntry{Key: k, Status: fault.Undetectable}
		if i%2 == 0 {
			e.Status = fault.Detected
			e.Vec = []uint8{uint8(i), uint8(i >> 8), 1, 0, 1}
			if i%4 == 0 {
				e.Init = []uint8{0, 1, uint8(i)}
			}
		}
		out = append(out, e)
	}
	return out
}

func entriesEqual(a, b []fcache.ExportedEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Status != b[i].Status ||
			!bytes.Equal(a[i].Init, b[i].Init) || !bytes.Equal(a[i].Vec, b[i].Vec) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := mkEntries(100, 37)
	added, err := s.Merge(in)
	if err != nil || added != 37 {
		t.Fatalf("Merge = %d, %v; want 37, nil", added, err)
	}
	// Duplicate merge is a no-op.
	if added, _ := s.Merge(in); added != 0 {
		t.Fatalf("duplicate Merge added %d entries", added)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 37 {
		t.Fatalf("reopened store has %d entries, want 37", s2.Len())
	}
	if st := s2.Stats(); st.HealedRecords != 0 || st.QuarantinedSegs != 0 {
		t.Fatalf("clean reopen reported healing: %+v", st)
	}
	// The reloaded content is identical to what went in.
	got := fcache.New()
	s2.Prewarm(got)
	want := fcache.New()
	want.Import(in)
	if !entriesEqual(got.Export(), want.Export()) {
		t.Fatal("round-tripped entries differ from the originals")
	}
}

func TestPrewarmCountsWarmHits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := mkEntries(7, 5)
	if _, err := s.Merge(in); err != nil {
		t.Fatal(err)
	}
	c := fcache.New()
	if n := s.Prewarm(c); n != 5 {
		t.Fatalf("Prewarm = %d, want 5", n)
	}
	if _, ok := c.Lookup(in[1].Key); !ok {
		t.Fatal("prewarmed entry missed")
	}
	if got := c.Stats().WarmHits; got != 1 {
		t.Fatalf("WarmHits = %d, want 1", got)
	}
	// A fresh store-less cache never reports warm hits.
	c2 := fcache.New()
	c2.Import(in)
	c2.Lookup(in[1].Key)
	if got := c2.Stats().WarmHits; got != 0 {
		t.Fatalf("cold cache WarmHits = %d, want 0", got)
	}
}

func TestTornTailHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := mkEntries(40, 9)
	if _, err := s.Merge(in); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.vseg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-bytes, as a crash mid-append would.
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 8 {
		t.Fatalf("healed store has %d entries, want 8 (one torn record dropped)", s2.Len())
	}
	st := s2.Stats()
	if st.HealedRecords != 1 || st.HealedBytes == 0 {
		t.Fatalf("heal stats = %+v, want 1 healed record", st)
	}
	// The dropped record can be re-merged and survives the next reopen.
	if added, _ := s2.Merge(in); added != 1 {
		t.Fatalf("re-merge after heal added %d, want 1", added)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 9 {
		t.Fatalf("store after heal+re-merge has %d entries, want 9", s3.Len())
	}
	if st := s3.Stats(); st.HealedRecords != 0 {
		t.Fatalf("second reopen healed again: %+v", st)
	}
}

func TestCorruptMidSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := mkEntries(300, 6)
	if _, err := s.Merge(in); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.vseg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte early in the record stream: everything from the damaged
	// record on is dropped (append-only format; no resync heuristics).
	data[len(segHeader)+5] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("store kept %d entries after first-record corruption, want 0", s2.Len())
	}
	if st := s2.Stats(); st.HealedRecords != 1 {
		t.Fatalf("heal stats = %+v", st)
	}
	// The survivors were truncated away on disk; re-merge repopulates.
	if added, _ := s2.Merge(in); added != 6 {
		t.Fatal("re-merge after mid-segment corruption failed")
	}
}

func TestBadHeaderQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(mkEntries(9000, 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(dir, "seg-000001.vseg")
	if err := os.WriteFile(seg, []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("store trusted a quarantined segment: %d entries", s2.Len())
	}
	if st := s2.Stats(); st.QuarantinedSegs != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined segment", st)
	}
	if _, err := os.Stat(seg + ".quarantine"); err != nil {
		t.Fatalf("quarantined segment not preserved: %v", err)
	}
	// The store keeps working after quarantine.
	if added, _ := s2.Merge(mkEntries(9000, 3)); added != 3 {
		t.Fatal("merge after quarantine failed")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLimit(dir, 256) // tiny bound: rotate every few records
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Merge(mkEntries(uint64(1000*(i+1)), 4)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if len(segs) < 2 {
		t.Fatalf("no rotation happened: %v", segs)
	}
	s2, err := OpenLimit(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 32 {
		t.Fatalf("rotated store has %d entries, want 32", s2.Len())
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close = %v", err)
	}
	s2.Close()
}

// tornTail is an append segment whose writes tear: each one writes the first
// half of its buffer to the real file and then fails, as a full disk or an
// I/O error mid-append would.
type tornTail struct{ *os.File }

func (f tornTail) Write(p []byte) (int, error) {
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errors.New("injected write failure")
}

// TestMergeFailedWriteRollsBack: a Merge whose append fails mid-record
// errors and leaves the store as it was — nothing indexed, the torn bytes
// cut from the tail — so the same entries append once the tail works again
// and a reopen loads every one of them, with nothing to heal.
func TestMergeFailedWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(mkEntries(100, 4)); err != nil {
		t.Fatal(err)
	}
	good := s.tail.(*os.File)
	s.tail = tornTail{good}
	in := mkEntries(500, 6)
	if added, err := s.Merge(in); err == nil || added != 0 {
		t.Fatalf("Merge through a failing tail = %d, %v; want 0 and an error", added, err)
	}
	if s.Len() != 4 {
		t.Fatalf("failed Merge left %d entries indexed, want 4", s.Len())
	}
	s.tail = good
	if added, err := s.Merge(in); err != nil || added != 6 {
		t.Fatalf("retried Merge = %d, %v; want 6, nil", added, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d entries, want 10", s2.Len())
	}
	if st := s2.Stats(); st.HealedRecords != 0 {
		t.Fatalf("reopen healed a torn record the failed Merge left behind: %+v", st)
	}
}
