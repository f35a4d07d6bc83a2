package fcache

import (
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/obs"
)

// TestLookupDropsChecksumMismatch: a content bit flip in a stored entry
// turns the next lookup into a counted miss that deletes the entry — the
// caller recomputes; the damaged verdict is never served.
func TestLookupDropsChecksumMismatch(t *testing.T) {
	c := New()
	k := Key{1, 2}
	c.Store(k, Entry{Status: fault.Detected, Vec: []uint8{1, 0, 1}})
	s := c.entries[k]
	s.e.Vec[1] ^= 1
	c.entries[k] = s

	if _, ok := c.Lookup(k); ok {
		t.Fatal("flipped entry served a verdict")
	}
	if got := c.Stats().Corrupt; got != 1 {
		t.Errorf("Corrupt = %d, want 1", got)
	}
	if c.Len() != 0 {
		t.Error("damaged entry not deleted")
	}
	// The slot is free again: a recomputed verdict stores and serves.
	c.Store(k, Entry{Status: fault.Undetectable})
	if e, ok := c.Lookup(k); !ok || e.Status != fault.Undetectable {
		t.Error("recomputed verdict not served after the drop")
	}
}

// TestLookupDropsVersionMismatch: an entry written under a different
// EntryVersion is dropped the same way, so a schema bump can never
// reinterpret old bytes as a verdict.
func TestLookupDropsVersionMismatch(t *testing.T) {
	c := New()
	tr := obs.New()
	c.Instrument(tr)
	k := Key{3, 4}
	c.Store(k, Entry{Status: fault.Detected, Vec: []uint8{1}})
	s := c.entries[k]
	s.ver++
	c.entries[k] = s

	if _, ok := c.Lookup(k); ok {
		t.Fatal("version-bumped entry served a verdict")
	}
	if got := c.Stats().Corrupt; got != 1 {
		t.Errorf("Corrupt = %d, want 1", got)
	}
	if got := tr.Counter("fcache/corrupt_dropped").Get(); got != 1 {
		t.Errorf("instrumented counter = %d, want 1", got)
	}
}

// TestTamperDeterministic: the damaged set is a pure function of (content,
// seed, rate) — two identically-built caches tampered with the same seed
// drop exactly the same entries.
func TestTamperDeterministic(t *testing.T) {
	build := func() *Cache {
		c := New()
		for i := 0; i < 128; i++ {
			c.Store(Key{uint64(i + 1), uint64(2*i + 1)}, Entry{Status: fault.Detected, Vec: []uint8{uint8(i), 1}})
		}
		return c
	}
	a, b := build(), build()
	na, nb := a.Tamper(7, 0.3), b.Tamper(7, 0.3)
	if na != nb || na == 0 || na == 128 {
		t.Fatalf("tamper damaged %d vs %d entries (want equal, partial)", na, nb)
	}
	for i := 0; i < 128; i++ {
		k := Key{uint64(i + 1), uint64(2*i + 1)}
		_, oka := a.Lookup(k)
		_, okb := b.Lookup(k)
		if oka != okb {
			t.Fatalf("entry %v survived in one cache and not the other", k)
		}
	}
	if ca, cb := a.Stats().Corrupt, b.Stats().Corrupt; ca != cb || int(ca) != na {
		t.Errorf("Corrupt counters %d/%d disagree with %d damaged", ca, cb, na)
	}
}

// TestSinceFollowsStoreOrder: Since hands over the entries stored after a
// mark in store order. Once the integrity check drops an entry, an older
// mark no longer names a prefix of the content, and Since returns the whole
// intact content, each key once, flagged full.
func TestSinceFollowsStoreOrder(t *testing.T) {
	c := New()
	key := func(i int) Key { return Key{uint64(i), 9} }
	keysOf := func(es []ExportedEntry) []Key {
		var ks []Key
		for _, e := range es {
			ks = append(ks, e.Key)
		}
		return ks
	}
	same := func(got []ExportedEntry, want ...int) bool {
		ks := keysOf(got)
		if len(ks) != len(want) {
			return false
		}
		for i, w := range want {
			if ks[i] != key(w) {
				return false
			}
		}
		return true
	}
	for _, i := range []int{3, 1, 2} {
		c.Store(key(i), Entry{Status: fault.Detected, Vec: []uint8{uint8(i)}})
	}
	es, m, full := c.Since(Mark{})
	if !full || !same(es, 3, 1, 2) {
		t.Fatalf("Since(zero) = %v full=%v, want 3 1 2 full", keysOf(es), full)
	}
	c.Store(key(5), Entry{Status: fault.Undetectable})
	c.Store(key(4), Entry{Status: fault.Undetectable})
	es, m, full = c.Since(m)
	if full || !same(es, 5, 4) {
		t.Fatalf("Since(mark) = %v full=%v, want 5 4", keysOf(es), full)
	}

	s := c.entries[key(1)]
	s.e.Vec[0] ^= 1
	c.entries[key(1)] = s
	c.Lookup(key(1)) // the integrity check drops it
	c.Store(key(6), Entry{Status: fault.Undetectable})
	es, m, full = c.Since(m)
	if !full || !same(es, 3, 2, 5, 4, 6) {
		t.Fatalf("Since after a drop = %v full=%v, want 3 2 5 4 6 full", keysOf(es), full)
	}
	c.Store(key(1), Entry{Status: fault.Undetectable}) // recomputed
	es, _, full = c.Since(m)
	if full || !same(es, 1) {
		t.Fatalf("Since after the re-store = %v full=%v, want 1", keysOf(es), full)
	}
	if es, _, _ := c.Since(Mark{}); !same(es, 3, 2, 5, 4, 6, 1) {
		t.Fatalf("whole content = %v, want each key once in store order", keysOf(es))
	}
	before := c.Mark()
	if c.Tamper(1, 1) == 0 {
		t.Fatal("tamper damaged nothing")
	}
	if es, _, full := c.Since(before); !full || len(es) != 0 {
		t.Fatalf("Since after a tamper = %d entries full=%v, want none, full", len(es), full)
	}
}

// TestRecordRoundTrip: the record codec decodes what it encodes, keeping
// absent vectors absent, and stops at a damaged record.
func TestRecordRoundTrip(t *testing.T) {
	in := []ExportedEntry{
		{Key: Key{1, 2}, Status: fault.Undetectable},
		{Key: Key{3, 4}, Status: fault.Detected, Vec: []uint8{1, 0, 1}},
		{Key: Key{5, 6}, Status: fault.Detected, Init: []uint8{0, 1}, Vec: []uint8{1, 1}},
	}
	var buf []byte
	for _, e := range in {
		buf = AppendRecord(buf, e)
	}
	out, n := DecodeRecords(buf)
	if n != len(buf) || len(out) != len(in) {
		t.Fatalf("decoded %d entries up to byte %d of %d", len(out), n, len(buf))
	}
	for i := range in {
		if out[i].Key != in[i].Key || out[i].Status != in[i].Status ||
			string(out[i].Init) != string(in[i].Init) || string(out[i].Vec) != string(in[i].Vec) ||
			(out[i].Init == nil) != (in[i].Init == nil) || (out[i].Vec == nil) != (in[i].Vec == nil) {
			t.Errorf("entry %d: %+v, want %+v", i, out[i], in[i])
		}
	}
	second := len(AppendRecord(nil, in[0]))
	buf[second+3] ^= 0x40
	if out, n := DecodeRecords(buf); len(out) != 1 || n != second {
		t.Errorf("damaged second record: %d entries up to byte %d, want 1 up to %d", len(out), n, second)
	}
}
