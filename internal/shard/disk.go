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
// shards, delta layers, tombstones — and names no file: the returned engine is
// the view of the GENERATION the directory is at, so every consumer serves the
// live corpus, compacted inserts included and deleted sequences filtered, and
// a writer continues from Layers and Tombstones.  The shard count is the
// directory's.  The engine takes ownership of dir, here on failure and in
// Close otherwise.
func OpenDiskEngine(dir *diskst.Dir) (*Engine, error) {
	r := &root{closers: []io.Closer{dir}, standing: dir.Quarantined}
	// Quarantined shards hold nil entries; the engine runs over the survivors,
	// whose global maps keep the original global numbering.
	for i, idx := range dir.Indexes {
		if idx != nil {
			r.base = append(r.base, baseShard{index: idx, globals: dir.Globals[i]})
		}
	}
	// The base totals are the manifest's, quarantined shards included, in
	// every view: delta layers are numbered after its sequence count, and a
	// degraded engine's E-values do not move when its first write adds a
	// layer.
	var err error
	if r.baseCat, err = newUnionCatalog(r.base, dir.NumSequences, dir.TotalResidues); err != nil {
		dir.Close()
		return nil, err
	}
	e, err := r.finish()
	if err != nil {
		dir.Close()
		return nil, err
	}
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
