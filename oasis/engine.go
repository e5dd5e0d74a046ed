package oasis

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// EngineOptions configures a warm engine: the source (IndexDir with PoolBytes
// and AllowDegraded, or a database split into Shards by sequence), the number
// of search slots all batches share (BatchWorkers; a batch query holds one
// only while it sweeps, and within one query every shard runs at once) and
// the result cache budget (CacheBytes).  The fields are documented on
// engine.Options, which this is.
type EngineOptions = engine.Options

// Engine is a warm, long-running OASIS query engine: the sharded suffix-tree
// index is built once and every subsequent query reuses it together with
// pooled searcher scratch, amortising engine setup across the query stream.
// All methods are safe for concurrent use — many goroutines may submit
// queries and batches against one Engine.
//
// Per query, the paper's online property is preserved: hits stream out in
// decreasing score order, so clients can stop early (context cancellation or
// returning false from the report callback).
//
//	db, _ := oasis.LoadFASTA("swissprot.fasta", oasis.Protein)
//	eng, _ := oasis.NewEngine(db, oasis.EngineOptions{})
//	defer eng.Close()
//	for r := range eng.SubmitBatch(ctx, batch) {
//	    if !r.Done {
//	        fmt.Println(r.QueryID, r.Hit.SeqID, r.Hit.Score)
//	    }
//	}
//
// ExampleEngine_SubmitBatch shows the build-once-serve-many lifecycle;
// cmd/oasis-serve wraps an Engine in an HTTP front end.
type Engine struct {
	eng *engine.Engine
	db  *Database
}

// NewEngine builds the warm engine over db: the database is partitioned into
// opts.Shards shards, each indexed once.  With opts.IndexDir (and a nil db)
// it instead opens the directory's prebuilt per-shard disk indexes.
func NewEngine(db *Database, opts EngineOptions) (*Engine, error) {
	eng, err := engine.New(db, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, db: db}, nil
}

// OpenEngine opens a warm engine over the prebuilt sharded disk index in
// dir; shorthand for NewEngine(nil, EngineOptions{IndexDir: dir, ...}).
func OpenEngine(dir string, opts EngineOptions) (*Engine, error) {
	opts.IndexDir = dir
	return NewEngine(nil, opts)
}

// DB returns the database the engine serves, or nil for disk-backed engines
// (use Catalog, Alphabet, NumSequences and TotalResidues in both modes).
func (e *Engine) DB() *Database { return e.db }

// Catalog returns the global sequence catalog the engine serves.
func (e *Engine) Catalog() Catalog { return e.eng.Catalog() }

// Alphabet returns the residue alphabet of the served database.
func (e *Engine) Alphabet() *Alphabet { return e.eng.Alphabet() }

// NumSequences returns the number of sequences the engine serves.
func (e *Engine) NumSequences() int { return e.eng.NumSequences() }

// TotalResidues returns the total residue count the engine serves.
func (e *Engine) TotalResidues() int64 { return e.eng.TotalResidues() }

// NumShards returns the number of partitions actually built.
func (e *Engine) NumShards() int { return e.eng.NumShards() }

// BatchWorkers returns the number of search slots.
func (e *Engine) BatchWorkers() int { return e.eng.BatchWorkers() }

// Close marks the engine closed and waits for in-flight queries to drain.
func (e *Engine) Close() error { return e.eng.Close() }

// EngineStats is a snapshot of an engine's lifetime counters.
type EngineStats struct {
	// Search is the merged work counters across every query served.
	Search SearchStats
	// QueriesServed and HitsReported count the engine's lifetime traffic.
	QueriesServed int64
	HitsReported  int64
}

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() EngineStats {
	st, queries, hits := e.eng.Stats()
	return EngineStats{Search: st, QueriesServed: queries, HitsReported: hits}
}

// EngineMetrics is a point-in-time snapshot of an engine's resource usage:
// pooled-scratch reuse (FreeListStats), per-shard active searches,
// per-shard buffer-pool hit rates (disk-backed engines) and the cross-query
// result-cache counters (engines built with CacheBytes).  Unlike EngineStats
// (lifetime totals), metrics describe the current load and are meant for
// capacity planning (cmd/oasis-serve exposes them at /metrics).
type EngineMetrics = engine.Metrics

// Metrics returns the engine's current resource-usage snapshot.
func (e *Engine) Metrics() EngineMetrics { return e.eng.Metrics() }

// Standing returns the shards quarantined when the engine opened (nil for a
// healthy engine).  Every query over an engine with standing quarantines
// reports Degraded with these errors.
func (e *Engine) Standing() []ShardError { return e.eng.Standing() }

// MutableStats snapshots the engine's incremental-indexing state: current
// generation, memtable occupancy, delta layers, tombstones and live totals
// (see EngineMetrics.Mutable).
type MutableStats = engine.MutableStats

// Mutable returns the engine's current incremental-indexing state, the
// Mutable part of Metrics without its buffer-pool and cache scans.
func (e *Engine) Mutable() MutableStats { return e.eng.Mutable() }

// Generation returns the engine's current index generation: every successful
// Insert, Delete and state-changing Compact bumps it.  Result-cache entries
// are keyed by generation, so a bump atomically retargets the cache — streams
// computed against older index states simply stop being reachable and age out
// of the LRU, with no global flush.
func (e *Engine) Generation() uint64 { return e.eng.Generation() }

// Insert adds one sequence to the served corpus; it is searchable before
// Insert returns.  The sequence lands in an in-memory delta index (the
// memtable, whose suffix tree each insert rebuilds) that searches merge with
// the base shards in the same decreasing-score stream.  IDs must be unique
// among live sequences; the residues are copied.  Disk-backed engines hold
// inserts in memory until Compact persists them (LSM without a WAL: a crash
// before Compact loses uncompacted writes, never the on-disk index).  Returns
// the new generation.
func (e *Engine) Insert(id string, residues []byte) (uint64, error) {
	return e.eng.Insert(id, residues)
}

// Delete removes the live sequence with the given ID from search results by
// writing a tombstone; the sequence stays physically present (and addressable
// through Catalog) — no compaction reclaims it.  Returns the new generation.
func (e *Engine) Delete(id string) (uint64, error) { return e.eng.Delete(id) }

// Compact seals the in-memory delta index, the one searches have been
// reading, as one more layer beside the base shards: in-memory engines keep it
// as it is; disk-backed engines write it as an ordinary single-file delta
// index and atomically swap in a manifest with a bumped generation
// (crash-safe: the old manifest and every file it references stay intact
// until the rename lands).  Hits, and the global indexes they carry, do not
// change; deleted sequences and sealed layers stay physically present.
// Returns the resulting generation (unchanged when there was nothing to do).
func (e *Engine) Compact() (uint64, error) { return e.eng.Compact() }

// BatchQuery is one query of a batch.
type BatchQuery struct {
	// ID identifies the query in the multiplexed result stream.
	ID string
	// Residues is the encoded query (use Alphabet.Encode / MustEncode).
	Residues []byte
	// Options configures the search (build with NewSearchOptions).
	Options SearchOptions
}

// BatchResult is one event of a batch result stream: a hit for one query, or
// that query's final Done event (QueryID and Index identify the query; Hit is
// valid when Done is false; a Done event carries Stats, Elapsed and the
// terminal Err, nil on normal completion).  Hits of one query arrive in
// decreasing score order; events of different queries interleave.  After
// cancellation, Done events are best-effort (the channel still closes).
type BatchResult = engine.Result

// SubmitBatch runs every query over the warm index, multiplexing the hit
// streams onto the returned channel.  Across all batches at most BatchWorkers
// queries sweep at once; a query whose consumer is not reading, or (on a
// coordinator) that waits on its remote slices, holds no slot.  Queries queue
// for a slot under ctx's Turn (WithTurn), a new one when it carries none.
// The channel closes when every query has produced its Done event.  Cancelling
// ctx stops all in-flight searches; consumers should drain the channel.
func (e *Engine) SubmitBatch(ctx context.Context, queries []BatchQuery) <-chan BatchResult {
	in := make([]engine.Query, len(queries))
	for i, q := range queries {
		in[i] = engine.Query{ID: q.ID, Residues: q.Residues, Options: coreOptions(q.Options)}
	}
	return e.eng.SubmitBatch(ctx, in)
}

// Turn is one client's place in the queue for the engine's search slots: the
// queries of every batch submitted under one Turn queue one at a time, so a
// client with many batches in flight holds one place, as a client with one
// does.
type Turn = engine.Turn

// NewTurn returns a Turn for one client.  A batch query that waits longer
// than wait for a search slot ends with ErrSaturated; 0 waits as long as the
// batch's context lives.
func NewTurn(wait time.Duration) *Turn { return engine.NewTurn(wait) }

// WithTurn returns a copy of ctx under which SubmitBatch queues in t's place.
func WithTurn(ctx context.Context, t *Turn) context.Context { return engine.WithTurn(ctx, t) }

// ErrSaturated ends a batch query that waited longer than its Turn allows for
// a search slot.
var ErrSaturated = engine.ErrSaturated

// Search runs one query on the warm engine, streaming hits to report in
// decreasing score order; return false from report (or cancel ctx) to stop
// early.
func (e *Engine) Search(ctx context.Context, query []byte, opts SearchOptions, report func(Hit) bool) error {
	_, err := e.eng.Search(ctx, engine.Query{Residues: query, Options: coreOptions(opts)}, report)
	return err
}

// SearchAll runs Search and collects every hit.
func (e *Engine) SearchAll(ctx context.Context, query []byte, opts SearchOptions) ([]Hit, error) {
	var hits []Hit
	err := e.Search(ctx, query, opts, func(h Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}

// RecoverAlignment reconstructs the full alignment for a hit reported by
// this engine (disk-backed engines read the residues back through the owning
// shard's buffer pool).
func (e *Engine) RecoverAlignment(query []byte, scheme Scheme, h Hit) (Alignment, error) {
	return core.RecoverAlignmentCatalog(e.eng.Catalog(), query, scheme, h)
}

// coreOptions translates the public search options into internal ones.
func coreOptions(opts SearchOptions) core.Options {
	return core.Options{
		Scheme:       opts.Scheme,
		MinScore:     opts.MinScore,
		MaxResults:   opts.MaxResults,
		KA:           opts.KA,
		Stats:        opts.Stats,
		StrictShards: opts.StrictShards,
	}
}
