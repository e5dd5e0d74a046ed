package shard

import (
	"fmt"
	"io"

	"repro/internal/diskst"
)

// DiskOptions configures OpenDiskEngine.
type DiskOptions struct {
	// Workers bounds concurrent shard searches per query (default: one per
	// shard), as in Options.
	Workers int
	// PoolBytesPerShard is each shard's buffer-pool capacity in bytes
	// (default diskst.DefaultPoolBytesPerShard).
	PoolBytesPerShard int64
	// AllowDegraded admits a sequence-partitioned directory whose shard
	// file(s) fail to open: the failed shards are quarantined and every
	// search reports Degraded (see diskst.OpenOptions.AllowDegraded).
	AllowDegraded bool
	// NoSteal disables work stealing between prefix shards, as in
	// Options.NoSteal.
	NoSteal bool
}

// OpenDiskEngine opens a sharded on-disk index directory (written by
// diskst.BuildSharded / oasis-build -shards) and assembles a sharded engine
// over it: every shard searches its own diskst.Index through its own buffer
// pool, so a query's shard fan-out also fans out page I/O, and the engine
// never needs the source database in memory.  The returned engine is the view
// of the manifest's GENERATION: the delta layers and tombstones it records
// (compactions of the engine layer's memtable) are opened here — the one
// place that reads the manifest's mutable section — so every consumer serves
// the live corpus, compacted inserts included and deleted sequences filtered,
// and a writer continues from Layers and Tombstones.  The engine owns the
// index files; call Close when done serving.
func OpenDiskEngine(dir string, opts DiskOptions) (*Engine, error) {
	disk, err := diskst.OpenSharded(dir, diskst.OpenOptions{
		PoolBytesPerShard: opts.PoolBytesPerShard,
		AllowDegraded:     opts.AllowDegraded,
	})
	if err != nil {
		return nil, err
	}
	r := &root{closers: []io.Closer{disk}, standing: disk.Quarantined, disk: disk}
	m := disk.Manifest
	switch m.Partition {
	case diskst.PartitionPrefix:
		r.mode = PartitionByPrefix
		for _, idx := range disk.Indexes {
			r.base = append(r.base, baseShard{index: idx})
		}
		r.prefixes = disk.Prefixes
		// Single-shard directories open no separate frontier handle (no
		// shared expansion ever runs); their one view serves the catalog.
		r.frontier = r.base[0].index
		if disk.Frontier != nil {
			r.frontier = disk.Frontier
		}
		r.baseCat = r.frontier.Catalog()
	default:
		r.mode = PartitionBySequence
		// Quarantined shards hold nil entries; the engine runs over the
		// survivors, whose global maps keep the original global numbering
		// (the union catalog tolerates the holes).
		for i, idx := range disk.Indexes {
			if idx != nil {
				r.base = append(r.base, baseShard{index: idx, globals: m.GlobalIndex[i]})
			}
		}
		if r.baseCat, err = newUnionCatalog(r.base); err != nil {
			disk.Close()
			return nil, err
		}
	}
	e, err := r.finish(Options{Workers: opts.Workers, NoSteal: opts.NoSteal})
	if err != nil {
		disk.Close()
		return nil, err
	}
	// The manifest, not the survivors' union catalog, defines where the
	// global numbering of the delta layers starts.
	r.baseSeqs, r.baseRes = m.NumSequences, m.TotalResidues
	var layers []Layer
	for _, d := range m.Deltas {
		idx, err := m.OpenFile(dir, d.File, opts.PoolBytesPerShard)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("shard: opening delta layer %s: %w", d.File, err)
		}
		r.closers = append(r.closers, idx)
		layers = append(layers, Layer{Index: idx, Globals: d.GlobalIndex})
	}
	var tombs map[int]bool
	if len(m.Tombstones) > 0 {
		tombs = make(map[int]bool, len(m.Tombstones))
		for _, t := range m.Tombstones {
			tombs[t] = true
		}
	}
	return e.WithLayers(layers, tombs)
}

// Disk returns the engine's on-disk shard set (manifest, base shard files), or
// nil for in-memory engines.
func (e *Engine) Disk() *diskst.Sharded { return e.disk }

// PoolStats snapshots the buffer pool of every disk index the view searches,
// each read through a pool of its own: the prefix-mode frontier view (as shard
// -1), the base shards under their shard numbers, then the delta layers —
// opened with the directory or by a compaction since — numbered on from
// there.  Nil for in-memory engines.
func (e *Engine) PoolStats() []diskst.PoolStats {
	if e.disk == nil {
		return nil
	}
	var out []diskst.PoolStats
	if e.disk.Frontier != nil {
		out = append(out, e.disk.Frontier.PoolStats(-1))
	}
	for i, idx := range e.disk.Indexes {
		if idx != nil { // nil: quarantined at open
			out = append(out, idx.PoolStats(i))
		}
	}
	for i, l := range e.layers {
		if idx, ok := l.Index.(*diskst.Index); ok { // the memtable layer has no pool
			out = append(out, idx.PoolStats(len(e.disk.Indexes)+i))
		}
	}
	return out
}
