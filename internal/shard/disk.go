package shard

import (
	"io"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/seq"
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
	// A quarantined shard is a part with its manifest counts and no catalog:
	// the survivors keep their global numbers, and a degraded engine's totals
	// (hence E-values, and the numbering of delta layers) do not move.
	var alphabet *seq.Alphabet
	first := 0
	for i, idx := range dir.Indexes {
		p := Part{Sequences: dir.Shards[i].Sequences, Residues: dir.Shards[i].Residues}
		if idx != nil {
			p.Catalog = idx.Catalog()
			alphabet = p.Catalog.Alphabet()
			r.base = append(r.base, baseShard{index: idx, first: first})
		}
		r.parts = append(r.parts, p)
		first += p.Sequences
	}
	e, err := r.finish(alphabet)
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
