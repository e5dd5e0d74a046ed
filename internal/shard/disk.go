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
	// WarmupPages controls open-time buffer-pool warm-up per shard
	// (0 = diskst.DefaultWarmupPages, negative = disabled).
	WarmupPages int
	// BaseOnly opens only the base shards, ignoring any delta layers and
	// tombstones the manifest records.  The warm engine layer sets it: it
	// reopens the mutable layer itself so writes can continue; every other
	// consumer leaves it false and gets the manifest's full live corpus.
	BaseOnly bool
	// NoSteal disables work stealing between prefix shards, as in
	// Options.NoSteal.
	NoSteal bool
}

// OpenDiskEngine opens a sharded on-disk index directory (written by
// diskst.BuildSharded / oasis-build -shards) and assembles a sharded engine
// over it: every shard searches its own diskst.Index through its own buffer
// pool, so a query's shard fan-out also fans out page I/O, and the engine
// never needs the source database in memory.  Delta layers and tombstones
// recorded by the manifest (compactions of the engine layer's mutable
// memtable) are opened too and folded into every search, so the engine
// serves the manifest's live corpus — unless DiskOptions.BaseOnly asks for
// the base generation alone.  The returned engine owns the index files; call
// Close when done serving.
func OpenDiskEngine(dir string, opts DiskOptions) (*Engine, error) {
	disk, err := diskst.OpenSharded(dir, diskst.OpenOptions{
		PoolBytesPerShard: opts.PoolBytesPerShard,
		AllowDegraded:     opts.AllowDegraded,
		WarmupPages:       opts.WarmupPages,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{closers: []io.Closer{disk}, standing: disk.Quarantined, disk: disk}
	switch disk.Manifest.Partition {
	case diskst.PartitionPrefix:
		e.mode = PartitionByPrefix
		for _, idx := range disk.Indexes {
			e.base = append(e.base, baseShard{index: idx})
		}
		e.prefixes = disk.Prefixes
		// Single-shard directories open no separate frontier handle (no
		// shared expansion ever runs); their one view serves the catalog.
		e.frontier = e.base[0].index
		if disk.Frontier != nil {
			e.frontier = disk.Frontier
		}
		e.cat = e.frontier.Catalog()
	default:
		e.mode = PartitionBySequence
		// Quarantined shards hold nil entries; the engine runs over the
		// survivors, whose global maps keep the original global numbering
		// (the union catalog tolerates the holes).
		for i, idx := range disk.Indexes {
			if idx != nil {
				e.base = append(e.base, baseShard{index: idx, globals: disk.Manifest.GlobalIndex[i]})
			}
		}
		if e.cat, err = newUnionCatalog(e.base); err != nil {
			disk.Close()
			return nil, err
		}
	}
	if _, err := e.finish(Options{Workers: opts.Workers, NoSteal: opts.NoSteal}); err != nil {
		disk.Close()
		return nil, err
	}
	if !opts.BaseOnly {
		if err := e.attachManifestDeltas(dir, opts); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// attachManifestDeltas folds the manifest's compacted delta layers and
// tombstones into a standing mutable set, so every search over the reopened
// engine serves the live corpus the manifest describes — compacted inserts
// included, deleted sequences filtered — exactly like the engine that wrote
// it.  The engine's catalog becomes the layered base+delta catalog (delta
// hits resolve IDs, E-values use live totals).
func (e *Engine) attachManifestDeltas(dir string, opts DiskOptions) error {
	m := e.disk.Manifest
	if len(m.Deltas) == 0 && len(m.Tombstones) == 0 {
		return nil
	}
	var extras []ExtraShard
	deltaSeqs, deltaRes := 0, int64(0)
	for _, d := range m.Deltas {
		idx, err := m.OpenFile(dir, d.File, opts.PoolBytesPerShard, opts.WarmupPages)
		if err != nil {
			return fmt.Errorf("shard: opening delta layer %s: %w", d.File, err)
		}
		e.closers = append(e.closers, idx)
		extras = append(extras, ExtraShard{
			Index:   idx,
			Globals: append([]int(nil), d.GlobalIndex...),
		})
		deltaSeqs += len(d.GlobalIndex)
		deltaRes += d.Residues
	}
	cat := e.cat
	if len(extras) > 0 {
		cat = NewLayeredCatalog(e.cat, m.NumSequences, m.TotalResidues, extras)
	}
	numSeqs := m.NumSequences + deltaSeqs
	totalRes := m.TotalResidues + deltaRes
	liveRes := totalRes
	ext := &ExtraSet{
		Shards:   extras,
		LiveSeqs: numSeqs - len(m.Tombstones),
		NumSeqs:  numSeqs,
	}
	if len(m.Tombstones) > 0 {
		tombs := make(map[int]bool, len(m.Tombstones))
		for _, t := range m.Tombstones {
			tombs[t] = true
			liveRes -= int64(cat.SequenceLength(t))
		}
		ext.Drop = func(i int) bool { return tombs[i] }
	}
	ext.TotalResidues = liveRes
	e.cat = cat
	e.numSeqs = numSeqs
	e.total = totalRes
	e.mutable = ext
	return nil
}

// Disk returns the engine's on-disk shard set (buffer-pool statistics,
// manifest), or nil for in-memory engines.
func (e *Engine) Disk() *diskst.Sharded { return e.disk }
