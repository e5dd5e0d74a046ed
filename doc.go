// Package repro is the root of the OASIS reproduction (Meek, Patel &
// Kasetty, VLDB 2003).  The public API lives in the oasis subpackage; the
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation.  See README.md for the layout.
//
// Beyond the paper, the repository scales the algorithm out and tightens
// its hot loop:
//
//   - A sharded engine (an index directory oasis-build -shards wrote, opened
//     with oasis.OpenEngine) searches every partition of a query at once and
//     merges the per-shard hit streams online in globally decreasing score
//     order
//     (internal/shard), so the paper's online property — and therefore
//     streaming top-k and early termination — survives sharding.  Shards
//     cut the database into independently indexed, contiguous runs of
//     sequences (internal/seq.PartitionDatabase, balanced by residue count),
//     on disk and in memory alike; shards, delta layers and coordinator
//     slices are all such runs, each placed in the global numbering by one
//     offset.  internal/shard can also partition one
//     shared suffix tree by suffix prefix (shard.Options.Partition), which
//     computes the near-root DP columns once per query; the benchmark still
//     measures it, but no command, engine option or index directory offers
//     it.
//   - The dynamic-programming column sweep in internal/core tracks the
//     live (non-pruned) band of each column and computes only those cells,
//     which typically cuts Stats.CellsComputed to a fraction of the
//     exhaustive sweep on selective searches.  Per-node column storage is
//     band-sized too: a search node carries only its live [lo, hi] interval
//     (allocated from size-classed free lists) instead of a full
//     len(query)+1 vector, and the provably dead row 0 is never computed
//     below the root.  Stats.MaxBandWidth records the widest band a search
//     ever stored.
//   - That engine is a warm batch query engine (internal/engine): the
//     sharded index is constructed once, searcher scratch is pooled per
//     worker (core.Scratch via bufferpool.FreeList) so a warm search
//     allocates nothing per node, and SubmitBatch multiplexes many
//     concurrent queries over the shared index while each query's hit
//     stream stays decreasing-score and cancellable — build once, serve
//     many.  cmd/oasis-serve is the HTTP/NDJSON front end over
//     one such engine (ExampleEngine_SubmitBatch in oasis/example_test.go
//     shows the lifecycle): /metrics
//     exposes the scratch free-list stats, per-shard active searches,
//     per-shard buffer-pool hit rates and per-endpoint latency
//     histograms for capacity planning, and batches of more than 256
//     queries are rejected with HTTP 413 so one huge batch cannot
//     monopolise the worker pool.
//   - The entire sharded serving stack also runs DISK-BACKED, so one warm
//     engine serves indexes bigger than RAM (a shard keeps its pool, 1
//     byte per residue of symbols and its catalog resident): oasis-build
//     writes an index directory — one diskst index file per shard
//     (-shards, default 1; no other command chooses a shard count) and a
//     manifest.json (internal/diskst.BuildSharded); oasis.OpenEngine and
//     the -index-dir flag of oasis-serve/oasis-search reopen the directory
//     with one buffer pool PER FILE (diskst.OpenDir, arranged into an engine
//     by shard.OpenDiskEngine;
//     a pool hit is a few atomic operations and no lock, internal/bufferpool;
//     an index file is level-order CSR, format v3 — a node's leaf children,
//     its internal children and every level of a subtree are contiguous runs,
//     so expanding a node and reporting a subtree read sequentially),
//     so a query's shard fan-out fans out page I/O with no cross-shard
//     cache thrash, and hit streams are identical to the in-memory
//     engines (randomized equivalence tests pin this).  The directory is
//     one object, diskst.Dir: it opens the
//     generation the manifest records — base shards, compacted delta layers,
//     tombstones — and alone writes the next one (Dir.Commit: what a crashed
//     commit left swept first, then temp + fsync + rename + directory fsync
//     for the delta and for the manifest), so no other package names a file, a
//     manifest or a pool.  The warm engine's writer (internal/engine)
//     publishes each later generation as another view over the same base
//     shards (shard.Engine.WithLayers), and its one compaction, memory or
//     disk, seals the memtable's own suffix tree as a layer: kept in memory,
//     or written once to the directory by Dir.Commit.
//
// The search kernel is pinned by a fuzz/golden/race test layer: native Go
// fuzz targets assert live-band/full-sweep hit identity and the sharded
// merge's order contract (in both partition modes) on arbitrary inputs,
// golden files freeze the Figure-4 workload's hits and work counters, and a
// -race stress test hammers one warm engine with concurrent batches and
// mid-stream cancellation.
//
// cmd/oasis-bench runs the paper's experiments (the Section 4.2 space table
// and Figures 3-9) at larger scale with full tables.  Everything this
// repository adds beyond the paper is measured by the program in benchmark/
// (`go run ./benchmark`): BENCHMARK.json names its four live-server
// workloads, the end-to-end metrics and the per-layer ones.
package repro
