package shard

import (
	"io"

	"repro/internal/core"
	"repro/internal/diskst"
)

// OpenDiskEngine assembles a sharded engine over an open index directory:
// every shard searches its own diskst.Index through its own buffer pool, so a
// query's shard fan-out also fans out page I/O, and the engine never needs the
// source database in memory.  It only arranges the handles dir holds — base
// shards, frontier view, delta layers, tombstones — and names no file: the
// returned engine is the view of the GENERATION the directory is at, so every
// consumer serves the live corpus, compacted inserts included and deleted
// sequences filtered, and a writer continues from Layers and Tombstones.  The
// shard count and partition mode are the directory's; opts.Shards and
// opts.Partition are ignored.  The engine takes ownership of dir, here on
// failure and in Close otherwise.
func OpenDiskEngine(dir *diskst.Dir, opts Options) (*Engine, error) {
	r := &root{closers: []io.Closer{dir}, standing: dir.Quarantined}
	if dir.Prefixes != nil {
		r.mode = PartitionByPrefix
		for _, idx := range dir.Indexes {
			r.base = append(r.base, baseShard{index: idx})
		}
		r.prefixes = dir.Prefixes
		// Single-shard directories open no separate frontier handle (no
		// shared expansion ever runs); their one view serves the catalog.
		r.frontier = r.base[0].index
		if dir.Frontier != nil {
			r.frontier = dir.Frontier
		}
		r.baseCat = r.frontier.Catalog()
	} else {
		r.mode = PartitionBySequence
		// Quarantined shards hold nil entries; the engine runs over the
		// survivors, whose global maps keep the original global numbering
		// (the union catalog tolerates the holes).
		for i, idx := range dir.Indexes {
			if idx != nil {
				r.base = append(r.base, baseShard{index: idx, globals: dir.Globals[i]})
			}
		}
		var err error
		if r.baseCat, err = newUnionCatalog(r.base); err != nil {
			dir.Close()
			return nil, err
		}
	}
	e, err := r.finish(opts)
	if err != nil {
		dir.Close()
		return nil, err
	}
	// The manifest, not the survivors' union catalog, defines where the
	// global numbering of the delta layers starts.
	r.baseSeqs, r.baseRes = dir.NumSequences, dir.TotalResidues
	var layers []core.Index
	for _, d := range dir.Deltas() {
		layers = append(layers, d)
	}
	var tombs map[int]bool
	if ts := dir.Tombstones(); len(ts) > 0 {
		tombs = make(map[int]bool, len(ts))
		for _, t := range ts {
			tombs[t] = true
		}
	}
	return e.WithLayers(layers, tombs)
}
