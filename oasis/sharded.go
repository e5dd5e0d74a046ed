package oasis

import (
	"fmt"

	"repro/internal/shard"
)

// ShardOptions configures a sharded search engine.
type ShardOptions struct {
	// IndexDir, when set, opens a prebuilt sharded disk index directory
	// (written by BuildShardedDiskIndex / oasis-build -shards) instead of
	// building in-memory indexes: each shard searches its own disk index
	// through its own buffer pool.  The shard count and partition mode come
	// from the directory's manifest, so Shards and PartitionByPrefix must
	// be left zero/false, and NewShardedIndex must be called with a nil
	// database.  Call Close when done.
	IndexDir string
	// PoolBytes is the per-shard buffer-pool capacity in bytes for IndexDir
	// engines (default 64 MB).
	PoolBytes int64
	// Shards is the number of work partitions (default 1).  Without
	// PartitionByPrefix the database is split into this many independently
	// indexed shards balanced by residue count (capped at the number of
	// sequences).
	Shards int
	// Workers bounds how many shard searches run concurrently for one
	// query (default: one per shard, plus one per delta layer merged in).
	Workers int
	// PartitionByPrefix selects prefix-partitioned subtree sharding: ONE
	// shared suffix tree is built and shards search disjoint top-level
	// subtrees assigned by suffix prefix, so near-root DP columns are
	// computed once per query instead of once per shard and total work
	// stays flat as the shard count grows.  Hit sets and scores are
	// identical in both modes; alignment endpoints of equal-score ties may
	// differ.
	PartitionByPrefix bool
	// NoSteal disables work stealing between prefix shards.  Stealing keeps
	// the merged (sequence, score, rank) stream identical but lets the
	// surviving alignment endpoints of equal-score ties vary run to run;
	// disable it when byte-stable endpoint reproducibility matters more
	// than tail latency.  Ignored in sequence mode (which never steals).
	NoSteal bool
}

// ShardedIndex is a sharded parallel OASIS engine: one suffix-tree index
// and searcher per database partition, with per-shard hit streams merged
// online into a single globally decreasing-score stream.  It reports
// exactly the hits a single-index search reports; hits with equal scores
// may interleave differently between runs.
//
// Quickstart:
//
//	db, _ := oasis.LoadFASTA("swissprot.fasta", oasis.Protein)
//	idx, _ := oasis.NewShardedIndex(db, oasis.ShardOptions{Shards: 8})
//	opts, _ := oasis.NewSearchOptions(scheme, db, query, oasis.WithEValue(20000))
//	err := idx.Search(query, opts, func(h oasis.Hit) bool {
//	    fmt.Println(h.SeqID, h.Score) // still decreasing-score, still online
//	    return true
//	})
type ShardedIndex struct {
	engine *shard.Engine
	db     *Database // nil for disk-backed engines
}

// NewShardedIndex partitions the work for db into opts.Shards shards: one
// in-memory suffix-tree index per shard by default, or one shared index with
// per-shard subtree assignments when opts.PartitionByPrefix is set.  With
// opts.IndexDir (and a nil db) it instead opens the directory's prebuilt
// per-shard disk indexes, one buffer pool per shard, including any compacted
// delta layers and tombstones the manifest records — the index serves the
// same live corpus as the Engine that wrote it.
func NewShardedIndex(db *Database, opts ShardOptions) (*ShardedIndex, error) {
	if opts.IndexDir != "" {
		if db != nil {
			return nil, fmt.Errorf("oasis: IndexDir and a database are mutually exclusive")
		}
		if opts.Shards != 0 || opts.PartitionByPrefix {
			return nil, fmt.Errorf("oasis: Shards/PartitionByPrefix come from the IndexDir manifest; do not set them")
		}
		engine, err := shard.OpenDiskEngine(opts.IndexDir, shard.DiskOptions{
			Workers:           opts.Workers,
			PoolBytesPerShard: opts.PoolBytes,
			NoSteal:           opts.NoSteal,
		})
		if err != nil {
			return nil, err
		}
		return &ShardedIndex{engine: engine}, nil
	}
	mode := shard.PartitionBySequence
	if opts.PartitionByPrefix {
		mode = shard.PartitionByPrefix
	}
	engine, err := shard.NewEngine(db, shard.Options{
		Shards:    opts.Shards,
		Workers:   opts.Workers,
		Partition: mode,
		NoSteal:   opts.NoSteal,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{engine: engine, db: db}, nil
}

// NumShards returns the number of partitions actually built.
func (x *ShardedIndex) NumShards() int { return x.engine.NumShards() }

// Workers returns the per-query concurrency bound.
func (x *ShardedIndex) Workers() int { return x.engine.Workers() }

// Catalog returns the global sequence catalog the index serves (valid for
// both in-memory and disk-backed engines).
func (x *ShardedIndex) Catalog() Catalog { return x.engine.Catalog() }

// TotalResidues returns the total residue count the index serves (the
// database size NewSearchOptionsSized needs for E-value thresholds).
func (x *ShardedIndex) TotalResidues() int64 { return x.engine.Catalog().TotalResidues() }

// Close releases resources the engine owns (disk index files for IndexDir
// engines; a no-op for in-memory ones).
func (x *ShardedIndex) Close() error { return x.engine.Close() }

// Search runs the query on every shard and streams the merged hits to
// report in decreasing score order, exactly like the single-index Search.
// Per-shard work counters are merged into opts.Stats; return false from
// report to stop early.
func (x *ShardedIndex) Search(query []byte, opts SearchOptions, report func(Hit) bool) error {
	return x.engine.Search(query, coreOptions(opts), report)
}

// RecoverAlignment reconstructs the full alignment for a hit reported by
// this engine (hit sequence indexes are global, so recovery runs against
// the engine's global catalog — for disk-backed engines the residues are
// read back through the owning shard's buffer pool).
func (x *ShardedIndex) RecoverAlignment(query []byte, scheme Scheme, h Hit) (Alignment, error) {
	return recoverAlignmentCatalog(x.engine.Catalog(), query, scheme, h)
}

// SearchAll runs Search and collects every hit.
func (x *ShardedIndex) SearchAll(query []byte, opts SearchOptions) ([]Hit, error) {
	return x.engine.SearchAll(query, coreOptions(opts))
}
