// Package fcache caches fault-classification verdicts across resynthesis
// iterations. A verdict for a fault is a function of the fault's support
// cone only: the transitive fanin of the site (activation), the transitive
// fanout of the site, and the transitive fanins of every side input along
// that fanout (propagation). The cache keys each fault by a 128-bit
// structural hash of exactly that cone, so a rebuild that leaves a fault's
// cone untouched produces the same key and the cached verdict is reused —
// only cone-dirty faults re-enter PODEM.
//
// Reuse policy (what keeps the cache sound):
//
//   - Undetectable entries are trusted directly. Undetectability is a
//     semantic property of the labeled cone structure, not of any search
//     order, so an isomorphic cone has the same verdict (modulo a 128-bit
//     hash collision).
//   - Detected entries are never trusted by status. They carry the witness
//     vector that detected the fault, and the consumer replays that vector
//     through fault simulation on the *current* circuit. A stale or
//     colliding entry then simply fails to detect and the fault falls back
//     to PODEM — reuse of Detected verdicts is unconditionally sound.
//   - Aborted verdicts are never stored: they reflect a search budget, not
//     a property of the circuit.
package fcache

import (
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/obs"
)

// Key is a 128-bit structural cone hash. The zero Key is never produced by
// the hasher and acts as "no key".
type Key [2]uint64

// Zero reports whether the key is the reserved no-key value.
func (k Key) Zero() bool { return k[0] == 0 && k[1] == 0 }

// Entry is one cached verdict. For Detected entries, Vec (and Init for
// two-pattern tests) hold the witness vector over the circuit's primary
// inputs in PI order; Undetectable entries carry no vector.
type Entry struct {
	Status fault.Status
	Init   []uint8
	Vec    []uint8
}

// DefaultLimit bounds the number of cached entries. When the cache is full
// new stores are dropped (rather than evicting), which keeps the cache's
// content — and therefore every downstream table — a deterministic function
// of the store sequence.
const DefaultLimit = 1 << 20

// EntryVersion stamps every stored entry with the verdict-encoding schema
// of the writer. Lookup treats an entry under any other version exactly
// like a corrupt one: the entry is dropped and the lookup misses, so the
// fault re-enters PODEM instead of trusting a verdict this build cannot
// interpret.
const EntryVersion = 1

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Lookups uint64
	Hits    uint64
	Stores  uint64
	// Corrupt counts entries dropped by the integrity check: a checksum
	// mismatch or an EntryVersion the reader does not speak. Each such
	// entry cost one recompute and can never have produced a verdict.
	Corrupt uint64
	// WarmHits counts the subset of Hits that landed on entries imported
	// from a persistent verdict store (ImportWarm) rather than computed by
	// this process — the cross-process amortization a shared store buys.
	WarmHits uint64
	Entries  int
}

// HitRate returns Hits/Lookups, or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// slot is the stored form of an entry: the verdict plus the integrity
// metadata Lookup verifies before releasing it — the writer's schema
// version and a CRC-32 of the verdict's content.
type slot struct {
	e   Entry
	ver uint16
	sum uint32
	// warm marks an entry imported from a persistent store rather than
	// computed by this process; hits on it count into Stats.WarmHits.
	warm bool
}

// intact reports whether the slot passes the integrity check.
func (s slot) intact() bool { return s.ver == EntryVersion && s.sum == checksum(s.e) }

// Cache is a concurrency-safe fault-verdict cache. A single Cache is meant
// to live for a whole resynthesis run and be shared by every ATPG invocation
// in the q-sweep (including the pre-physical-design screens).
type Cache struct {
	mu      sync.Mutex
	entries map[Key]slot
	// order lists the keys in the order they were stored. A key the
	// integrity check dropped stays listed, and stored again it is listed
	// twice; both can only happen once epoch has advanced.
	order []Key
	// epoch advances whenever an entry is dropped or damaged (Lookup's
	// integrity check, Tamper): a Mark taken before then no longer names a
	// prefix of the cache's content.
	epoch uint64
	// vecs is the current chunk that stored witness vectors are copied into.
	vecs  []uint8
	limit int

	lookups  uint64
	hits     uint64
	stores   uint64
	corrupt  uint64
	warmHits uint64

	// cCorrupt mirrors integrity drops into the run's metrics registry
	// when the cache is instrumented (nil no-ops otherwise).
	cCorrupt *obs.Counter
}

// New creates an empty cache with DefaultLimit capacity.
func New() *Cache {
	return &Cache{entries: make(map[Key]slot), limit: DefaultLimit}
}

// NewWithLimit creates an empty cache holding at most limit entries
// (limit <= 0 selects DefaultLimit).
func NewWithLimit(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Cache{entries: make(map[Key]slot), limit: limit}
}

// Instrument routes the cache's integrity-drop count into the tracer's
// registry as fcache/corrupt_dropped. A nil tracer uninstruments.
func (c *Cache) Instrument(tr *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cCorrupt = tr.Counter("fcache/corrupt_dropped")
}

// checksum covers everything a verdict means: status, the presence and
// content of the two-pattern init vector, and the witness vector. A bit
// flip anywhere in a stored entry changes it.
func checksum(e Entry) uint32 {
	present := 0
	if e.Init != nil {
		present = 1
	}
	sum := headerSums[present][byte(e.Status)]
	sum = crc32.Update(sum, crc32.IEEETable, e.Init)
	sum = crc32.Update(sum, crc32.IEEETable, e.Vec)
	return sum
}

// headerSums holds the CRC-32 of every checksum header: the status byte
// followed by the Init-presence byte. Hashing a header held on the stack
// would move it to the heap, one allocation per checksum.
var headerSums = func() (t [2][256]uint32) {
	for present := range t {
		for st := range t[present] {
			t[present][st] = crc32.ChecksumIEEE([]byte{byte(st), byte(present)})
		}
	}
	return t
}()

// Lookup returns the entry for k, if present and intact. Zero keys never
// match. An entry that fails the integrity check — stored under a different
// EntryVersion, or whose content no longer matches its checksum — is
// deleted and the lookup misses: the caller recomputes the verdict, which
// is always sound, instead of trusting damaged bytes, which never is.
func (c *Cache) Lookup(k Key) (Entry, bool) {
	if k.Zero() {
		return Entry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	s, ok := c.entries[k]
	if !ok {
		return Entry{}, false
	}
	if !s.intact() {
		delete(c.entries, k)
		c.epoch++
		c.corrupt++
		c.cCorrupt.Inc()
		return Entry{}, false
	}
	c.hits++
	if s.warm {
		c.warmHits++
	}
	return s.e, true
}

// Store records a verdict for k. The first store for a key wins — later
// stores for the same key are ignored, so the cache content is independent
// of which of several structurally identical faults stores first. Zero keys,
// Aborted/Untried statuses, and stores into a full cache are dropped.
// Witness slices are copied; the caller keeps ownership of its buffers.
func (c *Cache) Store(k Key, e Entry) {
	c.store(k, e, false)
}

// store is the shared write path of Store and the imports; warm tags the
// entry as externally sourced for Stats.WarmHits accounting.
func (c *Cache) store(k Key, e Entry, warm bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insert(k, e, warm)
}

// insert stores one entry under c.mu, copying its vectors into the cache's
// own storage.
func (c *Cache) insert(k Key, e Entry, warm bool) bool {
	if k.Zero() {
		return false
	}
	if e.Status != fault.Detected && e.Status != fault.Undetectable {
		return false
	}
	if _, dup := c.entries[k]; dup {
		return false
	}
	if len(c.entries) >= c.limit {
		return false
	}
	e.Init = c.copyVec(e.Init)
	e.Vec = c.copyVec(e.Vec)
	c.entries[k] = slot{e: e, ver: EntryVersion, sum: checksum(e), warm: warm}
	c.order = append(c.order, k)
	c.stores++
	return true
}

// vecChunk is the size of the chunks witness vectors are copied into.
const vecChunk = 64 << 10

// copyVec copies a witness vector into the current chunk, so that storing an
// entry costs no allocation of its own. An empty vector stays nil: the
// checksum hashes whether Init is present.
func (c *Cache) copyVec(v []uint8) []uint8 {
	if len(v) == 0 {
		return nil
	}
	if len(v) > cap(c.vecs)-len(c.vecs) {
		c.vecs = make([]uint8, 0, max(len(v), vecChunk))
	}
	n := len(c.vecs)
	c.vecs = append(c.vecs, v...)
	return c.vecs[n:len(c.vecs):len(c.vecs)]
}

// Tamper deterministically damages a fraction of the cached entries, for
// chaos testing: entries are visited in sorted key order and a seeded hash
// selects victims, so the damaged set is a pure function of (cache content,
// seed, rate). Odd-hashed victims get one bit flipped in their stored
// verdict content (checksum mismatch); even-hashed victims get their entry
// version bumped (version mismatch). Returns how many entries were damaged.
// The integrity check must turn every one of them into a recompute.
func (c *Cache) Tamper(seed int64, rate float64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	damaged := 0
	for _, k := range keys {
		h := mix64(uint64(seed) ^ k[0] ^ (k[1] << 1))
		if float64(h>>11)/float64(1<<53) >= rate {
			continue
		}
		s := c.entries[k]
		if h&1 == 1 {
			if len(s.e.Vec) > 0 {
				s.e.Vec[0] ^= 0x01
			} else {
				s.e.Status ^= 0x7f
			}
		} else {
			s.ver++
		}
		c.entries[k] = s
		damaged++
	}
	if damaged > 0 {
		c.epoch++
	}
	return damaged
}

// ExportedEntry is one cache entry in portable form: what the verdict store
// persists and a sweep checkpoint's verdict log journals, both in the record
// codec of record.go (tier attribution in the provenance ledger is
// cache-history-dependent, so a resumed sweep must restore the cache a
// killed run had built, not just what replay re-derives).
type ExportedEntry struct {
	Key    Key
	Status fault.Status
	Init   []uint8
	Vec    []uint8
}

// Export snapshots the cache's intact entries in sorted key order — a
// deterministic function of the cache content. Entries failing the
// integrity check are skipped (not deleted; the next Lookup handles that).
func (c *Cache) Export() []ExportedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]ExportedEntry, 0, len(keys))
	for _, k := range keys {
		s := c.entries[k]
		if !s.intact() {
			continue
		}
		out = append(out, ExportedEntry{Key: k, Status: s.e.Status, Init: s.e.Init, Vec: s.e.Vec})
	}
	return out
}

// Mark is a position in a cache's store order; see Since.
type Mark struct {
	n     int
	epoch uint64
}

// Mark returns the current end of the cache's store order.
func (c *Cache) Mark() Mark {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Mark{n: len(c.order), epoch: c.epoch}
}

// Since returns the intact entries stored after m, in store order, and the
// mark of the current end. When the cache has dropped or damaged an entry
// since m was taken, or m is the zero Mark, the entries before m no longer
// describe the content, so Since starts at the first entry instead and
// reports full: entries is then the cache's whole intact content, each key
// once. The vectors alias the cache's storage and must not be modified.
func (c *Cache) Since(m Mark) (entries []ExportedEntry, next Mark, full bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := m.n
	if m.epoch != c.epoch || start > len(c.order) {
		start = 0
	}
	// Entries stored after a mark of the current epoch are all live and
	// listed once. From the start, once the epoch has advanced, a key
	// dropped and stored again is listed twice: walking backwards keeps its
	// later position, the one its live entry was stored at.
	var seen map[Key]bool
	if start == 0 && c.epoch > 0 {
		seen = make(map[Key]bool, len(c.entries))
	}
	entries = make([]ExportedEntry, 0, len(c.order)-start)
	for i := len(c.order) - 1; i >= start; i-- {
		k := c.order[i]
		s, ok := c.entries[k]
		if !ok || !s.intact() || seen[k] {
			continue
		}
		if seen != nil {
			seen[k] = true
		}
		entries = append(entries, ExportedEntry{Key: k, Status: s.e.Status, Init: s.e.Init, Vec: s.e.Vec})
	}
	slices.Reverse(entries)
	return entries, Mark{n: len(c.order), epoch: c.epoch}, start == 0
}

// Import stores every exported entry under normal Store semantics (first
// write wins, invalid statuses and overflow dropped) and returns how many
// landed. Importing an Export of the same cache is a no-op.
func (c *Cache) Import(entries []ExportedEntry) int {
	return c.importAll(entries, false)
}

// ImportWarm is Import for entries sourced from a persistent verdict store:
// identical store semantics, but hits on the imported entries are counted
// into Stats.WarmHits — the measure of how much ATPG work the shared store
// saved this process. Returns how many entries landed.
func (c *Cache) ImportWarm(entries []ExportedEntry) int {
	return c.importAll(entries, true)
}

// importAll stores entries in their order under one hold of the lock. An
// import into an empty cache, a prewarm or a resumed sweep's verdict log,
// first sizes the map for all of them.
func (c *Cache) importAll(entries []ExportedEntry, warm bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 && len(entries) > 0 {
		c.entries = make(map[Key]slot, len(entries))
		c.order = slices.Grow(c.order, len(entries))
	}
	n := 0
	for _, e := range entries {
		if c.insert(e.Key, Entry{Status: e.Status, Init: e.Init, Vec: e.Vec}, warm) {
			n++
		}
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Lookups: c.lookups, Hits: c.hits, Stores: c.stores, Corrupt: c.corrupt, WarmHits: c.warmHits, Entries: len(c.entries)}
}
