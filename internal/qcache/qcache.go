// Package qcache is the cross-query result cache of the warm batch engine:
// a sharded, size-bounded LRU that maps (encoded query residues, normalized
// search options) to the completed decreasing-score hit stream the engine
// produced for them, so identical queries arriving again are replayed without
// touching the index or running a single DP column.
//
// The paper's online search amortises nothing across queries — every request
// pays the full banded best-first sweep even when the stream of a previous,
// identical request is sitting in memory.  A cached stream is valid only for
// the exact index state that produced it, so the key carries the engine's
// index generation (Key.Gen): every insert, delete or compaction bumps the
// generation, making entries for older generations unreachable — they age out
// of the LRU naturally instead of requiring a global flush.  Within one
// generation the index is immutable and there is no invalidation problem,
// only a memory budget, which the LRU enforces in bytes.
//
// The cache also owns the single-flight table used by internal/engine: when
// N identical queries are in flight concurrently, one leader runs the search
// while the other N-1 wait on its completion and then replay the freshly
// inserted entry, so a thundering herd of duplicates costs one DP sweep.
//
// Entries remember whether the stored stream ran to exhaustion (Complete) or
// was truncated by the query's MaxResults.  A complete entry serves any
// top-k request by truncation; a truncated entry with k hits serves any
// request for at most k results.  MaxResults is therefore deliberately NOT
// part of the key.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/score"
)

// numShards is the lock-striping factor of the LRU.  Sixteen shards keep
// lock contention negligible at the engine's batch-worker counts.
const numShards = 16

// Key identifies one cached result stream.  Two searches with equal keys
// report identical hit streams over the same (immutable) index, modulo
// MaxResults truncation, which the entry handles (see Entry.Complete).
//
// The matrix is keyed by pointer identity rather than name: built-in
// matrices are package-level singletons, and pointer identity is the only
// equality that cannot confuse two custom matrices sharing a name.
type Key struct {
	// Query is the encoded residue string.
	Query string
	// Gen is the index generation the stream was produced against.  Mutable
	// engines bump it on every write, so stale streams become unreachable
	// without a flush; immutable engines leave it zero.
	Gen uint64
	// Matrix and Gap pin the scoring scheme.
	Matrix *score.Matrix
	Gap    int
	// MinScore is the reporting threshold.
	MinScore int
	// KA pins the E-value statistics attached to hits (zero when HasKA is
	// false); two requests differing only here produce different Hit.EValue
	// fields, so they must not share an entry.
	KA    score.KarlinAltschul
	HasKA bool
}

// NewKey derives the cache key for a search of residues under opts against
// index generation gen.  MaxResults, Stats, Scratch and the cancellation
// fields are intentionally excluded: they do not change which hits a
// completed stream contains.
func NewKey(residues []byte, opts core.Options, gen uint64) Key {
	k := Key{
		Query:    string(residues),
		Gen:      gen,
		Matrix:   opts.Scheme.Matrix,
		Gap:      opts.Scheme.Gap,
		MinScore: opts.MinScore,
	}
	if opts.KA != nil {
		k.KA = *opts.KA
		k.HasKA = true
	}
	return k
}

// shardIndex hashes the key onto a lock stripe (FNV-1a over the query bytes
// and the scalar fields; the matrix pointer is deliberately left out — query
// bytes dominate and pointers do not hash portably).
func (k *Key) shardIndex() int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Query); i++ {
		h = (h ^ uint64(k.Query[i])) * prime64
	}
	h = (h ^ uint64(uint(k.MinScore))) * prime64
	h = (h ^ uint64(uint(k.Gap))) * prime64
	h = (h ^ k.Gen) * prime64
	return int(h % numShards)
}

// Entry is one cached result stream.  Hits is immutable after insertion and
// may be read concurrently by any number of replays; ranks are the stream
// positions 1..len(Hits), so a prefix of Hits is itself a valid stream.
type Entry struct {
	// Hits is the stored stream, in the decreasing-score order the engine
	// emitted it.
	Hits []core.Hit
	// Complete reports that the stream ran to exhaustion: the search ended
	// because the priority queue drained or every sequence was reported, not
	// because MaxResults truncated it.  A complete entry answers any top-k
	// request; an incomplete one only requests for at most len(Hits) hits.
	Complete bool

	size int64
}

const (
	// hitSize approximates one core.Hit's fixed footprint (struct rounded
	// up, excluding the SeqID string bytes — see HitSize).
	hitSize = 96
	// entryOverhead covers the map bucket, list element and entry header.
	entryOverhead = 256
)

// HitSize approximates one hit's resident bytes in a cached stream.  Leaders
// accumulating a candidate stream use it to stop buffering early once the
// stream can no longer fit the cache (see Cache.MaxEntryBytes).
func HitSize(h *core.Hit) int64 { return hitSize + int64(len(h.SeqID)) }

// entrySize approximates an entry's resident bytes: the fixed Hit struct
// footprint plus the sequence-identifier strings and the key's query copy.
func entrySize(key *Key, e *Entry) int64 {
	n := int64(entryOverhead) + int64(len(key.Query))
	for i := range e.Hits {
		n += HitSize(&e.Hits[i])
	}
	return n
}

// Serves reports whether the entry can answer a request for maxResults hits
// (0 = all qualifying hits).
func (e *Entry) Serves(maxResults int) bool {
	if e.Complete {
		return true
	}
	return maxResults > 0 && maxResults <= len(e.Hits)
}

// cacheShard is one LRU stripe: a map from key to list element, with the
// list ordered most-recently-used first.
type cacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // of *shardEntry, front = most recent
	byKey    map[Key]*list.Element
}

type shardEntry struct {
	key   Key
	entry *Entry
}

// Stats is a point-in-time snapshot of the cache counters (exposed through
// engine.Metrics and /metrics).
type Stats struct {
	// Entries and Bytes describe the current residency; MaxBytes the budget.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits and Misses count Get outcomes; HitRate is Hits/(Hits+Misses).
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	// Insertions counts fresh entries; Replacements counts Puts that
	// overwrote an existing entry for the same key (previously folded into
	// Insertions, which overstated how many distinct streams were admitted);
	// Evictions counts LRU removals.
	Insertions   int64 `json:"insertions"`
	Replacements int64 `json:"replacements"`
	Evictions    int64 `json:"evictions"`
	// Oversized counts streams refused admission because they exceeded the
	// per-entry budget (MaxEntryBytes); before this counter existed they were
	// dropped silently.
	Oversized int64 `json:"oversized"`
	// InjectedFaults counts Get calls failed by an active faultpoint drill
	// (OASIS_FAILPOINTS on qcache.get).  They degrade to index searches but
	// are NOT counted as misses, so HitRate stays meaningful during drills.
	InjectedFaults int64 `json:"injected_faults"`
	// FlightWaits counts searches that waited on a concurrent identical
	// leader instead of running their own DP sweep (single-flight).
	FlightWaits int64 `json:"flight_waits"`
}

// Cache is the sharded LRU plus the single-flight table.  All methods are
// safe for concurrent use.
type Cache struct {
	shards   [numShards]cacheShard
	maxEntry int64 // per-entry admission budget (a fraction of one stripe)

	hits           atomic.Int64
	misses         atomic.Int64
	insertions     atomic.Int64
	replacements   atomic.Int64
	evictions      atomic.Int64
	oversized      atomic.Int64
	injectedFaults atomic.Int64
	flightWaits    atomic.Int64

	flightMu sync.Mutex
	flight   map[Key]chan struct{}
}

// DefaultEntryFraction is the default per-entry admission budget as a
// fraction of one lock stripe.  A single stream filling a whole stripe would
// evict every other entry on that stripe for one giant, rarely-re-asked
// query; half a stripe keeps at least two resident.
const DefaultEntryFraction = 0.5

// New builds a cache bounded at maxBytes total (split evenly across the lock
// stripes) with the default per-entry admission fraction.  maxBytes must be
// positive; engines treat a zero budget as "cache disabled" and never
// construct one.
func New(maxBytes int64) *Cache {
	return NewWithFraction(maxBytes, DefaultEntryFraction)
}

// NewWithFraction is New with an explicit per-entry admission budget:
// streams larger than entryFraction of one lock stripe are refused (counted
// in Stats.Oversized), and MaxEntryBytes reports the budget so leaders stop
// buffering a too-large stream early instead of accumulating it to the limit
// first.  Fractions outside (0, 1] fall back to the default.
func NewWithFraction(maxBytes int64, entryFraction float64) *Cache {
	if entryFraction <= 0 || entryFraction > 1 {
		entryFraction = DefaultEntryFraction
	}
	c := &Cache{flight: make(map[Key]chan struct{})}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].maxBytes = per
		c.shards[i].order = list.New()
		c.shards[i].byKey = make(map[Key]*list.Element)
	}
	c.maxEntry = int64(float64(per) * entryFraction)
	if c.maxEntry < 1 {
		c.maxEntry = 1
	}
	return c
}

// Get returns the cached entry for key when one exists that can serve a
// request for maxResults hits (see Entry.Serves), marking it most recently
// used.  The returned entry is shared and must be treated as immutable.
func (c *Cache) Get(key Key, maxResults int) (*Entry, bool) {
	// An injected cache fault degrades to a miss-shaped answer: the query
	// falls through to the index, which is always correct (just slower).  It
	// is counted separately from real misses so fault drills don't corrupt
	// the hit rate operators alert on.
	if faultpoint.Hit(faultpoint.SiteCacheGet, "get") != nil {
		c.injectedFaults.Add(1)
		return nil, false
	}
	sh := &c.shards[key.shardIndex()]
	sh.mu.Lock()
	el, ok := sh.byKey[key]
	if ok {
		// Read the pointer under the lock: a concurrent Put replaces it.
		if entry := el.Value.(*shardEntry).entry; entry.Serves(maxResults) {
			sh.order.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			return entry, true
		}
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// MaxEntryBytes returns the per-entry admission budget (the configured
// fraction of one lock stripe).  Callers accumulating a candidate stream
// stop buffering once its approximate size (HitSize per hit) exceeds this,
// instead of holding a stream Put would refuse anyway.
func (c *Cache) MaxEntryBytes() int64 { return c.maxEntry }

// Put inserts (or replaces) the stream for key and evicts least-recently
// used entries until the stripe fits its budget.  Streams larger than the
// per-entry budget are refused and counted in Stats.Oversized.  The caller
// transfers ownership of entry.Hits: it must not be mutated afterwards.
func (c *Cache) Put(key Key, entry *Entry) {
	entry.size = entrySize(&key, entry)
	sh := &c.shards[key.shardIndex()]
	if entry.size > c.maxEntry {
		c.oversized.Add(1)
		return
	}
	sh.mu.Lock()
	replaced := false
	if el, ok := sh.byKey[key]; ok {
		old := el.Value.(*shardEntry)
		sh.bytes -= old.entry.size
		old.entry = entry
		sh.bytes += entry.size
		sh.order.MoveToFront(el)
		replaced = true
	} else {
		sh.byKey[key] = sh.order.PushFront(&shardEntry{key: key, entry: entry})
		sh.bytes += entry.size
	}
	evicted := 0
	for sh.bytes > sh.maxBytes {
		back := sh.order.Back()
		se := back.Value.(*shardEntry)
		sh.order.Remove(back)
		delete(sh.byKey, se.key)
		sh.bytes -= se.entry.size
		evicted++
	}
	sh.mu.Unlock()
	if replaced {
		c.replacements.Add(1)
	} else {
		c.insertions.Add(1)
	}
	c.evictions.Add(int64(evicted))
}

// Begin joins the single-flight group for key.  The first caller becomes the
// leader (leader == true) and MUST call End(key) when its search finishes,
// whether or not it inserted an entry.  Every other caller gets leader ==
// false and a channel that closes at the leader's End; it should then
// re-check the cache (a failed leader inserts nothing, and the next Begin
// elects a new leader).
func (c *Cache) Begin(key Key) (leader bool, done <-chan struct{}) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if ch, ok := c.flight[key]; ok {
		c.flightWaits.Add(1)
		return false, ch
	}
	ch := make(chan struct{})
	c.flight[key] = ch
	return true, ch
}

// End completes the leader's flight for key, waking every waiter.
func (c *Cache) End(key Key) {
	c.flightMu.Lock()
	ch := c.flight[key]
	delete(c.flight, key)
	c.flightMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Insertions:     c.insertions.Load(),
		Replacements:   c.replacements.Load(),
		Evictions:      c.evictions.Load(),
		Oversized:      c.oversized.Load(),
		InjectedFaults: c.injectedFaults.Load(),
		FlightWaits:    c.flightWaits.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.byKey)
		st.Bytes += sh.bytes
		st.MaxBytes += sh.maxBytes
		sh.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
