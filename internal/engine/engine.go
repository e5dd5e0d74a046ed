// Package engine turns the per-query OASIS machinery into a long-running
// batch query engine: one warm sharded index (internal/shard) built once,
// per-worker scratch reuse (internal/core.Scratch pooled through
// internal/bufferpool.FreeList), an optional cross-query result cache
// (internal/qcache, Options.CacheBytes) that replays completed hit streams
// for repeated queries and single-flights concurrent duplicates, and a
// SubmitBatch API that multiplexes many concurrent queries over the shared
// index — sweeping on a bounded, engine-wide set of search slots queued fairly
// per client (Turn) — while preserving each query's online decreasing-score
// hit stream.
//
// The paper's value proposition is online search — hits stream out strongest
// first so clients can stop early — but a cold start per query (index
// construction, scratch allocation, shard pool spin-up) caps throughput far
// below what the algorithm allows.  The engine amortises all of that across
// the query stream: build once, serve many.
//
//	eng, _ := engine.New(db, engine.Options{})
//	results := eng.SubmitBatch(ctx, queries)
//	for r := range results {
//	    if r.Done { ... } else { use r.Hit (per-query decreasing score) }
//	}
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/qcache"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/suffixtree"
)

// Options configures a warm engine.  It is the one statement of these
// decisions: the public oasis.EngineOptions is this type, and the commands'
// flags fill it directly.
type Options struct {
	// IndexDir, when set, serves a prebuilt sharded disk index directory
	// (written by diskst.BuildSharded / oasis-build -shards) instead of
	// building in-memory indexes from a database: each shard searches its
	// own diskst.Index through its own buffer pool, so one warm engine can
	// serve indexes bigger than RAM (a shard keeps its symbols, 1 byte per
	// residue, and its catalog resident).  The shard count comes from the
	// directory's manifest — Shards must be left zero — and New must be
	// called with a nil database.
	IndexDir string
	// PoolBytes is the per-shard buffer-pool capacity in bytes for IndexDir
	// engines (default diskst.DefaultPoolBytesPerShard, 64 MB).
	PoolBytes int64
	// Shards is the number of sequence-disjoint work partitions, each its own
	// suffix tree (default 1; capped at the number of sequences).  Every
	// shard and delta layer of a query is searched at once.
	Shards int
	// BatchWorkers is the number of search slots the engine shares among
	// the queries of every SubmitBatch (default GOMAXPROCS): a batch query
	// holds one only while its DP sweep runs, not while it waits on a
	// concurrent identical query, replays a cached stream, waits for a
	// consumer that is not reading or, on a provider-backed engine, waits on
	// its remote slices.  Queries wait for a free slot in FIFO order, one
	// place per Turn (WithTurn).  Search takes no slot.
	BatchWorkers int
	// AllowDegraded admits an IndexDir whose shard file(s) fail to open:
	// the failed shards are quarantined at open time and every query reports
	// Degraded with the per-shard errors instead of the engine refusing to
	// start.
	AllowDegraded bool
	// CacheBytes bounds the cross-query result cache (internal/qcache): a
	// positive budget makes the engine store every completed decreasing-score
	// hit stream and replay it — without touching the index — when an
	// identical query (same residues, scheme, MinScore, E-value statistics)
	// arrives again.  Concurrent identical queries are single-flighted: one
	// runs the DP sweep, the rest wait and replay.  Cache keys carry the
	// index generation, so a write (Insert/Delete/Compact) retargets the
	// cache instead of serving stale streams; superseded entries age out of
	// the LRU, which evicts by recency when the budget fills.  Zero disables
	// caching; see Metrics().Cache for hit rates.
	CacheBytes int64
}

// Query is one unit of work for the engine.
type Query struct {
	// ID identifies the query in the multiplexed result stream (batch
	// results carry both the ID and the batch index, so IDs need not be
	// unique).
	ID string
	// Residues is the encoded query sequence.
	Residues []byte
	// Options configures this query's search (Scheme, MinScore, MaxResults,
	// KA, StrictShards).  Stats may be nil; the engine accumulates per-query
	// and engine-wide counters regardless.  Scratch and Context are managed
	// by the engine: Scratch must be nil, and the query's context is the one
	// passed to Search or SubmitBatch.
	Options core.Options
}

// Result is one event of a batch result stream.  Every query produces zero
// or more hit events normally followed by exactly one Done event; hit events
// for one query arrive in decreasing score order (events of different
// queries interleave arbitrarily).  After the context is cancelled, Done
// events may be dropped when the consumer has stopped draining — the channel
// still closes once every query has unwound.
type Result struct {
	// QueryID and Index identify the query (Index is its position in the
	// submitted batch).
	QueryID string
	Index   int
	// Hit is valid when Done is false.
	Hit core.Hit
	// Done marks the query's final event; Stats then holds its merged work
	// counters, Elapsed its wall-clock duration, and Err its terminal error
	// (context.Canceled after cancellation, nil on normal completion).
	Done    bool
	Stats   core.Stats
	Elapsed time.Duration
	Err     error
}

// Engine is a warm, concurrency-safe OASIS query engine: the sharded index
// is built once and every subsequent query reuses it, along with pooled
// searcher scratch.  All methods are safe for concurrent use.
type Engine struct {
	// slots holds one token per search slot in use; its capacity is
	// Options.BatchWorkers, and a full channel queues senders in FIFO order.
	slots chan struct{}
	// slotHook, when a test sets it, is called with the batch's context when
	// a query starts waiting for a free search slot (granted false) and when
	// it gets one (granted true).
	slotHook func(ctx context.Context, granted bool)
	// resultBuffer is the capacity of the channels SubmitBatch returns:
	// defaultResultBuffer, except where a test sets the field to pin
	// back-pressure.
	resultBuffer int
	// cache is the cross-query result cache (nil when Options.CacheBytes is
	// zero); it also owns the single-flight table for concurrent duplicates.
	cache *qcache.Cache

	// state is the published generation snapshot (see mutable.go): one
	// shard-engine view over the base shards, delta layers and tombstones.
	// Searches pin one snapshot for their whole run; writers build a new
	// snapshot under wmu and swap it in atomically.
	state atomic.Pointer[genState]

	// Writer-side fields, all guarded by wmu.  wBase is the DURABLE view —
	// the base shards plus every sealed layer (disk engines: what reopening
	// the directory would return) — and the parent of every published view.
	// dir is the open index directory of a disk engine (nil otherwise): it
	// writes each compaction and owns every file handle, so wBase.Close
	// releases them.
	wmu     sync.Mutex
	wBase   *shard.Engine
	wGen    uint64
	mem     *suffixtree.OnlineBuilder
	tombs   map[int]bool // immutable once published; copy-on-write
	idIndex map[string]int
	dir     *diskst.Dir

	// immutable marks engines whose base index is not writable from this
	// process (provider-backed coordinator engines: the corpus lives in the
	// remote slices' serving processes).  Insert/Delete/Compact refuse.
	immutable bool

	inserts     atomic.Int64
	deletes     atomic.Int64
	compactions atomic.Int64

	mu              sync.Mutex
	stats           core.Stats
	queriesServed   int64
	hitsReported    int64
	degradedQueries int64
	closed          bool
	// active tracks in-flight work; begin() only Adds under mu while the
	// engine is open, so Close's Wait cannot race a starting submission.
	active sync.WaitGroup
}

// defaultResultBuffer is the capacity of the channel SubmitBatch returns:
// enough for a worker to run ahead of a consumer that is busy writing the
// previous burst of hits, small enough that a stalled consumer back-pressures
// the searches within one burst.
const defaultResultBuffer = 64

// cur returns the engine's current published generation snapshot.
func (e *Engine) cur() *genState { return e.state.Load() }

// New builds a warm engine ready to serve queries: with Options.IndexDir it
// opens the directory's prebuilt per-shard disk indexes (db must be nil);
// otherwise it partitions db and builds one in-memory suffix-tree index per
// shard.
func New(db *seq.Database, opts Options) (*Engine, error) {
	var sharded *shard.Engine
	var dir *diskst.Dir
	var err error
	if opts.IndexDir != "" {
		if db != nil {
			return nil, fmt.Errorf("engine: IndexDir and a database are mutually exclusive")
		}
		if opts.Shards != 0 {
			return nil, fmt.Errorf("engine: Shards comes from the IndexDir manifest; do not set it")
		}
		if dir, err = diskst.OpenDir(opts.IndexDir, opts.PoolBytes, opts.AllowDegraded); err == nil {
			sharded, err = shard.OpenDiskEngine(dir)
		}
	} else {
		if db == nil {
			return nil, fmt.Errorf("engine: either a database or IndexDir is required")
		}
		sharded, err = shard.NewEngine(db, shard.Options{Shards: opts.Shards})
	}
	if err != nil {
		return nil, err
	}
	e, err := newWarm(sharded, dir, opts, false)
	if err != nil {
		sharded.Close()
	}
	return e, err
}

// newWarm is the constructor tail New and NewFromShardEngine share: the batch
// and cache defaults, the writer wired under the freshly opened base view, and
// the first published generation.  For disk engines base already carries the
// delta layers and tombstones of the directory's generation, and the
// generation number continues from the directory's.  An immutable engine has
// nothing to write to.
func newWarm(base *shard.Engine, dir *diskst.Dir, opts Options, immutable bool) (*Engine, error) {
	slots := opts.BatchWorkers
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		slots:        make(chan struct{}, slots),
		resultBuffer: defaultResultBuffer,
		immutable:    immutable,
		wBase:        base,
		tombs:        base.Tombstones(),
		dir:          dir,
	}
	if dir != nil {
		e.wGen = dir.Generation()
	}
	if err := e.publishLocked(); err != nil {
		return nil, err
	}
	if opts.CacheBytes > 0 {
		e.cache = qcache.New(opts.CacheBytes)
	}
	return e, nil
}

// NewFromShardEngine wraps a pre-assembled shard engine — typically a
// provider-backed one (shard.NewEngineFromProviders), whose shards are remote
// slice streams — as a warm batch engine, so the whole serving stack
// (SubmitBatch multiplexing, search slots, result cache) runs unchanged
// over a distributed corpus.  Only the batch/cache options apply
// (BatchWorkers, CacheBytes); index-construction options must be zero.  The
// engine is IMMUTABLE: the corpus lives in the remote slices' serving
// processes, so Insert, Delete and Compact return ErrImmutable.
// Close closes base.
func NewFromShardEngine(base *shard.Engine, opts Options) (*Engine, error) {
	if base == nil {
		return nil, fmt.Errorf("engine: nil shard engine")
	}
	if opts.IndexDir != "" || opts.Shards != 0 {
		return nil, fmt.Errorf("engine: NewFromShardEngine wraps an existing engine; index-construction options must be zero")
	}
	return newWarm(base, nil, opts, true)
}

// Catalog returns the global sequence catalog the engine serves: sequence
// identifiers, lengths, residues for alignment recovery.  It is valid in
// both in-memory and disk-backed modes and covers the base corpus plus every
// inserted sequence; deleted (tombstoned) sequences stay addressable so hits
// streamed before the delete can still recover alignments.
func (e *Engine) Catalog() core.Catalog { return e.cur().view.Catalog() }

// Alphabet returns the residue alphabet of the served database.
func (e *Engine) Alphabet() *seq.Alphabet { return e.Catalog().Alphabet() }

// NumSequences returns the number of sequences the engine physically holds
// (base corpus plus inserted sequences, including tombstoned ones); see
// Metrics().Mutable.LiveSequences for the searchable count.
func (e *Engine) NumSequences() int { return e.Catalog().NumSequences() }

// TotalResidues returns the total residue count the engine physically holds.
func (e *Engine) TotalResidues() int64 { return e.Catalog().TotalResidues() }

// NumShards returns the number of partitions actually built.
func (e *Engine) NumShards() int { return e.cur().view.NumShards() }

// BatchWorkers returns the number of search slots.
func (e *Engine) BatchWorkers() int { return cap(e.slots) }

// Stats returns the engine-wide merged work counters and the number of
// queries served and hits reported since construction.  It carries no
// per-query detail: Degraded and ShardErrors stay unset (Metrics counts
// degraded queries).
func (e *Engine) Stats() (st core.Stats, queries, hits int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats, e.queriesServed, e.hitsReported
}

// Metrics is a snapshot of the engine's resource counters for capacity
// planning: scratch free-list reuse and per-shard active searches.
type Metrics struct {
	// Scratch reports pooled searcher-scratch reuse.
	Scratch bufferpool.FreeListStats `json:"scratch"`
	// Shards holds each shard's active search count.
	Shards []shard.QueueDepth `json:"shards"`
	// Pools holds the buffer-pool hit statistics of a disk-backed engine,
	// one entry per pool: the base shards, then every delta layer under its
	// file name.  Nil for in-memory engines.
	Pools []diskst.PoolStats `json:"pools,omitempty"`
	// Cache holds the cross-query result cache counters (nil when the
	// engine was built without Options.CacheBytes).
	Cache *qcache.Stats `json:"cache,omitempty"`
	// Faults holds the engine's fault-tolerance counters.
	Faults FaultMetrics `json:"faults"`
	// Mutable holds the incremental-indexing counters: current generation,
	// memtable occupancy, delta layers, tombstones and live totals.
	Mutable MutableStats `json:"mutable"`
}

// FaultMetrics counts failures survived (or surfaced) since process start.
type FaultMetrics struct {
	// DegradedQueries is how many queries completed with Stats.Degraded set
	// (partial results from surviving shards).
	DegradedQueries int64 `json:"degraded_queries"`
	// ShardsQuarantined is how many shards are currently quarantined: shards
	// dropped mid-query over the engine's lifetime plus shards quarantined at
	// open time.
	ShardsQuarantined int64 `json:"shards_quarantined"`
	// ChecksumFailures and ReadRetries are process-wide diskst fault
	// counters: blocks that failed CRC32C verification (after the one
	// re-read) and transient read errors retried with backoff.
	ChecksumFailures int64 `json:"checksum_failures"`
	ReadRetries      int64 `json:"read_retries"`
}

// Metrics returns a point-in-time snapshot of the engine's resource usage.
func (e *Engine) Metrics() Metrics {
	st := e.cur()
	v := st.view
	m := Metrics{Scratch: v.ScratchStats(), Shards: v.QueueDepths()}
	if e.dir != nil {
		m.Pools = e.dir.PoolStats()
	}
	if e.cache != nil {
		cs := e.cache.Stats()
		m.Cache = &cs
	}
	fc := diskst.Counters()
	e.mu.Lock()
	m.Faults.DegradedQueries = e.degradedQueries
	e.mu.Unlock()
	m.Faults.ShardsQuarantined = v.Quarantines() + int64(len(v.Standing()))
	m.Faults.ChecksumFailures = fc.ChecksumFailures
	m.Faults.ReadRetries = fc.ReadRetries
	m.Mutable = e.mutableStats(st)
	return m
}

// Standing returns the shards quarantined when the engine opened (nil for a
// healthy engine).
func (e *Engine) Standing() []core.ShardError { return e.cur().view.Standing() }

// begin registers one unit of in-flight work, failing when the engine is
// closed.  The counter increment happens under the same lock that Close uses
// to flip closed, so a successful begin strictly precedes Close's Wait.
func (e *Engine) begin() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.active.Add(1)
	return true
}

// Close marks the engine closed; subsequent submissions and writes fail.  It
// does not interrupt in-flight queries (cancel their contexts for that) but
// waits for them to drain, then releases every resource any generation ever
// owned: the base engine — with it the index directory and every delta layer
// a compaction opened.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.active.Wait()
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.wBase.Close()
}

// ErrClosed is returned for submissions after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// Search runs one query on the warm index, streaming hits to report in
// decreasing score order until report returns false, the context is
// cancelled, or the search completes.  It returns the query's merged work
// counters.
func (e *Engine) Search(ctx context.Context, q Query, report func(core.Hit) bool) (core.Stats, error) {
	if !e.begin() {
		return core.Stats{}, ErrClosed
	}
	defer e.active.Done()
	return e.searchOne(ctx, q, nil, report)
}

// searchOne serves one query: through the cross-query cache when the engine
// has one (replay on hit, single-flighted DP sweep on miss), directly off
// the index otherwise.  A non-nil seat holds a search slot around the sweep.
func (e *Engine) searchOne(ctx context.Context, q Query, seat *seat, report func(core.Hit) bool) (core.Stats, error) {
	// Pin one generation for the life of the query: the snapshot's index
	// layers stay valid (resources are only released at Close) and the cache
	// key carries the generation, so a write published mid-query can neither
	// change this query's view nor let its result stream be replayed for
	// queries against the newer index state.
	st := e.state.Load()
	if e.cache == nil {
		return e.searchIndex(ctx, st, q, seat, report)
	}
	key := qcache.NewKey(q.Residues, q.Options, st.gen)
	for {
		if entry, ok := e.cache.Get(key, q.Options.MaxResults); ok {
			return e.replay(ctx, q, entry, report)
		}
		leader, done := e.cache.Begin(key)
		if leader {
			break
		}
		// A concurrent identical query is already sweeping; wait for its
		// completion and re-check the cache.  A leader that completed
		// without inserting (cancelled, or its client stopped early) leaves
		// a miss, and the next Begin elects us leader.
		select {
		case <-done:
		case <-ctxDone(ctx):
			return core.Stats{}, ctx.Err()
		}
	}
	defer e.cache.End(key)
	stopped := false
	var hits []core.Hit
	// Stop buffering (and release what was buffered) the moment the stream
	// outgrows the largest entry the cache can hold: an uncacheable stream
	// must not cost a full in-memory copy on every execution.
	sizeLeft := e.cache.MaxEntryBytes()
	stats, err := e.searchIndex(ctx, st, q, seat, func(h core.Hit) bool {
		if sizeLeft >= 0 {
			if sizeLeft -= qcache.HitSize(&h); sizeLeft < 0 {
				hits = nil
			} else {
				hits = append(hits, h)
			}
		}
		if !report(h) {
			stopped = true
			return false
		}
		return true
	})
	// Cache only streams that completed on their own terms: a search the
	// client stopped (or the context cancelled) is a prefix of unknown
	// coverage.  A stream cut by MaxResults is cached as incomplete — it
	// still answers any request for at most len(hits) results.  A degraded
	// stream is never cached: replaying it would keep serving partial
	// results after the fault has cleared.
	if err == nil && !stopped && sizeLeft >= 0 && !stats.Degraded {
		complete := q.Options.MaxResults == 0 || len(hits) < q.Options.MaxResults
		e.cache.Put(key, &qcache.Entry{Hits: hits, Complete: complete})
	}
	return stats, err
}

// replay streams a cached entry to report, honouring the query's MaxResults
// and context exactly as a live search would.  No index work happens; the
// per-query stats show only the replayed hit count.
func (e *Engine) replay(ctx context.Context, q Query, entry *qcache.Entry, report func(core.Hit) bool) (core.Stats, error) {
	var st core.Stats
	n := 0
	for i := range entry.Hits {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if q.Options.MaxResults > 0 && n >= q.Options.MaxResults {
			break
		}
		if !report(entry.Hits[i]) {
			n++
			break
		}
		n++
	}
	st.SequencesReported = int64(n)
	var err error
	if ctx != nil {
		err = ctx.Err()
	}
	e.mu.Lock()
	e.stats.Add(st)
	e.queriesServed++
	e.hitsReported += int64(n)
	e.mu.Unlock()
	if q.Options.Stats != nil {
		q.Options.Stats.Add(st)
	}
	return st, err
}

// searchIndex runs the query on the pinned generation's view (the
// cache-miss path; the only path when the engine has no cache), holding a
// search slot when seat is non-nil — except, on a provider-backed view, while
// the merge waits on its remote slices.  The context is observed both at
// every hit callback and — via core's periodic poll — inside hit-less DP
// stretches.
func (e *Engine) searchIndex(ctx context.Context, s *genState, q Query, seat *seat, report func(core.Hit) bool) (core.Stats, error) {
	var slot shard.Slot
	if seat != nil {
		if err := seat.Take(); err != nil {
			return core.Stats{}, err
		}
		defer seat.Give()
		slot = seat
	}
	var st core.Stats
	opts := q.Options
	opts.Stats = &st
	opts.Scratch = nil // scratch is pooled inside the shard engine
	opts.Context = ctx
	var hits int64
	counted := func(h core.Hit) bool {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		hits++
		return report(h)
	}
	err := s.view.SearchYield(q.Residues, opts, counted, slot)
	if err == nil && seat != nil {
		err = seat.err // a slot lost at a blocked send
	}
	if err == nil && ctx != nil {
		err = ctx.Err()
	}
	// The lifetime total keeps counters only: a degraded query's flag and
	// shard errors stay with that query (degradedQueries counts it), so
	// Stats does not grow by one error per degraded query.
	counters := st
	counters.Degraded, counters.ShardErrors = false, nil
	e.mu.Lock()
	e.stats.Add(counters)
	e.queriesServed++
	e.hitsReported += hits
	if st.Degraded {
		e.degradedQueries++
	}
	e.mu.Unlock()
	if q.Options.Stats != nil {
		q.Options.Stats.Add(st)
	}
	return st, err
}

// SubmitBatch runs every query of the batch over the warm index and
// multiplexes their hit streams onto the returned channel.  Each query's hits
// arrive in decreasing score order and end with one Done event; the channel
// closes when every query has finished.  At most BatchWorkers queries of the
// batch are in flight, each sweeping only while it holds a search slot, for
// which it queues under the context's Turn (a new one when there is none).
// Cancelling the context stops all in-flight searches; the channel still
// closes (consumers should drain it).
func (e *Engine) SubmitBatch(ctx context.Context, queries []Query) <-chan Result {
	out := make(chan Result, e.resultBuffer)
	if !e.begin() {
		go func() {
			defer close(out)
			for i, q := range queries {
				select {
				case out <- Result{QueryID: q.ID, Index: i, Done: true, Err: ErrClosed}:
				case <-ctxDone(ctx):
					return
				}
			}
		}()
		return out
	}
	var turn *Turn
	if ctx != nil {
		turn, _ = ctx.Value(turnKey{}).(*Turn)
	}
	if turn == nil {
		turn = NewTurn(0)
	}
	go func() {
		defer e.active.Done()
		defer close(out)
		// A fixed pool of BatchWorkers range workers drains an index
		// channel, so a 100k-query batch starts BatchWorkers goroutines,
		// not 100k.
		workers := cap(e.slots)
		if workers > len(queries) {
			workers = len(queries)
		}
		if workers < 1 {
			workers = 1
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					e.runQuery(ctx, i, queries[i], &seat{e: e, turn: turn, ctx: ctx}, out)
				}
			}()
		}
		for i := range queries {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}()
	return out
}

// runQuery executes one query of a batch, forwarding hits and the final Done
// event to out.  Sends race the context so a cancelled consumer never blocks
// a worker, and a send that would block gives the query's search slot back
// until the consumer has taken the hit.
func (e *Engine) runQuery(ctx context.Context, index int, q Query, seat *seat, out chan<- Result) {
	// After cancellation, skip searcher setup entirely: emit the
	// best-effort Done and let the batch drain fast (a cancelled 100k-query
	// batch must not pay 100k searcher spin-ups just to unwind).
	if ctx != nil && ctx.Err() != nil {
		done := Result{QueryID: q.ID, Index: index, Done: true, Err: ctx.Err()}
		select {
		case out <- done:
		default:
		}
		return
	}
	start := time.Now()
	st, err := e.searchOne(ctx, q, seat, func(h core.Hit) bool {
		r := Result{QueryID: q.ID, Index: index, Hit: h}
		select {
		case out <- r:
			return true
		default:
		}
		// A replayed hit arrives with no slot held, and takes none back.
		held := seat.held
		seat.Give()
		select {
		case out <- r:
		case <-ctxDone(ctx):
			return false
		}
		return !held || seat.Take() == nil
	})
	done := Result{QueryID: q.ID, Index: index, Done: true, Stats: st, Elapsed: time.Since(start), Err: err}
	select {
	case out <- done:
	case <-ctxDone(ctx):
		// Cancelled: the consumer may be gone, so only a non-blocking
		// delivery is safe (see the Result contract — post-cancellation
		// Done events are best-effort).  The channel still closes once
		// every worker returns.
		select {
		case out <- done:
		default:
		}
	}
}

// Turn is one client's place in the queue for the engine's search slots:
// the queries of every batch submitted under one Turn wait for a slot one at
// a time, so a client with many batches in flight holds one place in the
// FIFO, as a client with one does.
type Turn struct {
	ch   chan struct{}
	wait time.Duration
}

// NewTurn returns a Turn for one client.  A query that waits longer than
// wait for a search slot ends with ErrSaturated; 0 waits as long as the
// batch's context lives.
func NewTurn(wait time.Duration) *Turn { return &Turn{ch: make(chan struct{}, 1), wait: wait} }

// ErrSaturated ends a batch query that waited longer than its Turn allows for
// a search slot.
var ErrSaturated = fmt.Errorf("engine: saturated: no search slot within the turn's wait bound")

type turnKey struct{}

// WithTurn returns a copy of ctx under which SubmitBatch queues for search
// slots in t's place.
func WithTurn(ctx context.Context, t *Turn) context.Context {
	return context.WithValue(ctx, turnKey{}, t)
}

// seat is one batch query's claim on a search slot.  Its methods are called
// one at a time, never concurrently.
type seat struct {
	e    *Engine
	turn *Turn
	ctx  context.Context
	held bool
	// err is the error of a Take that failed: the query ends with it.
	err error
}

// Take waits for the turn, then for a free slot, for at most the turn's wait
// bound in all.  The bound's timer starts only once Take has to wait.
func (s *seat) Take() error {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	send := func(ch chan struct{}) error {
		select {
		case ch <- struct{}{}:
			return nil
		default:
		}
		var expired <-chan time.Time
		if s.turn.wait > 0 {
			if timer == nil {
				timer = time.NewTimer(s.turn.wait)
			}
			expired = timer.C
		}
		select {
		case ch <- struct{}{}:
			return nil
		case <-ctxDone(s.ctx):
			return s.ctx.Err()
		case <-expired:
			return ErrSaturated
		}
	}
	if s.err = send(s.turn.ch); s.err != nil {
		return s.err
	}
	defer func() { <-s.turn.ch }()
	if s.e.slotHook != nil {
		s.e.slotHook(s.ctx, false)
	}
	if s.err = send(s.e.slots); s.err != nil {
		return s.err
	}
	s.held = true
	if s.e.slotHook != nil {
		s.e.slotHook(s.ctx, true)
	}
	return nil
}

// Give returns the slot, if the seat holds one.
func (s *seat) Give() {
	if s.held {
		s.held = false
		<-s.e.slots
	}
}

// ctxDone tolerates a nil context (SubmitBatch with no cancellation).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
