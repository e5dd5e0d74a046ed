// Mutable layer: LSM-style incremental indexing over the immutable base
// index.
//
// A generation is a VIEW: one shard.Engine value over the base shards, the
// compacted delta layers, the memtable snapshot and the tombstone set
// (shard.Engine.WithLayers), which derives the global catalog and the live
// totals itself and is searched like any other shard engine.  This file is the
// WRITER of generations and nothing else.  Inserts land in an in-memory delta,
// the memtable (internal/suffixtree.OnlineBuilder), whose index every write
// rebuilds with suffixtree.Build; deletes add per-sequence tombstones; every
// write builds the next view and publishes it as an immutable genState that
// searches pin for their whole run.  Compaction seals the memtable's index,
// the one the last publish built, as a layer of the durable view — kept as it
// is (memory engines), or written with the tombstones to the index directory
// (diskst.Dir.Commit — the on-disk protocol and its crash contract are stated
// there and nowhere else) and continued from the layer it returns (disk
// engines) — so hits and their global sequence indexes survive it unchanged,
// and deleted sequences and sealed layers stay physically present (a memory
// engine's until it restarts).
//
// Durability (disk engines): inserts and deletes are memory-only until Compact
// persists them — the engine is an LSM without a WAL.  A crash between a write
// and the next Compact loses the uncompacted writes but never the on-disk
// index.
package engine

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/suffixtree"
)

// genState is one immutable generation of the engine's index.  A search loads
// the pointer once and uses only the snapshot from then on; writers build a
// fresh genState under wmu and publish it with one atomic store.
type genState struct {
	gen uint64
	// view is the generation's searchable corpus: base shards, delta layers,
	// memtable snapshot and tombstone filter behind one shard.Engine.
	view *shard.Engine
	// mem is the memtable's index, the view's last layer (nil when the
	// memtable is empty): what Compact seals.  memSeqs/memRes size it.
	mem     *core.MemoryIndex
	memSeqs int
	memRes  int64
}

// MutableStats snapshots the incremental-indexing state (Metrics.Mutable,
// Engine.Mutable).
type MutableStats struct {
	// Generation is the current index generation; every successful Insert,
	// Delete and state-changing Compact bumps it, which retargets the result
	// cache (entries are keyed by generation, so stale streams simply stop
	// being reachable).
	Generation uint64 `json:"generation"`
	// Inserts / Deletes / Compactions count successful mutations since the
	// engine was built.
	Inserts     int64 `json:"inserts"`
	Deletes     int64 `json:"deletes"`
	Compactions int64 `json:"compactions"`
	// MemtableSequences / MemtableResidues describe the uncompacted
	// in-memory delta.
	MemtableSequences int   `json:"memtable_sequences"`
	MemtableResidues  int64 `json:"memtable_residues"`
	// DeltaLayers counts searchable layers over the base shards: one per
	// compaction that sealed a memtable (a delta file, or the sealed index in
	// memory; nothing merges them yet) plus the memtable, when non-empty.
	DeltaLayers int `json:"delta_layers"`
	// Tombstones counts deleted sequences, all still physically present:
	// compaction reclaims none, and every search filters them.
	Tombstones int `json:"tombstones"`
	// LiveSequences / LiveResidues describe the searchable corpus after
	// tombstone filtering.
	LiveSequences int   `json:"live_sequences"`
	LiveResidues  int64 `json:"live_residues"`
}

// Mutable snapshots the current generation's incremental-indexing state: the
// Mutable part of Metrics, without Metrics' scans of every buffer pool and
// cache stripe, for callers on the write path.
func (e *Engine) Mutable() MutableStats { return e.mutableStats(e.cur()) }

func (e *Engine) mutableStats(st *genState) MutableStats {
	v := st.view
	return MutableStats{
		Generation:        st.gen,
		Inserts:           e.inserts.Load(),
		Deletes:           e.deletes.Load(),
		Compactions:       e.compactions.Load(),
		MemtableSequences: st.memSeqs,
		MemtableResidues:  st.memRes,
		DeltaLayers:       len(v.Layers()),
		Tombstones:        len(v.Tombstones()),
		LiveSequences:     v.LiveSequences(),
		LiveResidues:      v.LiveResidues(),
	}
}

// Generation returns the engine's current index generation.
func (e *Engine) Generation() uint64 { return e.cur().gen }

// ErrImmutable is returned by Insert, Delete and Compact on engines whose
// base index is not writable from this process (NewFromShardEngine: the
// corpus lives in the remote slices' serving processes, which serve their
// index directories read-only — a distributed corpus changes by rebuilding a
// slice's index and redeploying its replicas).
var ErrImmutable = fmt.Errorf("engine: index is immutable here; rebuild the slice's index with oasis-build and redeploy its shard servers")

// publishLocked builds the view for the writer's current fields — the durable
// view's layers, the memtable snapshot as one more, the current tombstones —
// and publishes it.  Caller holds wmu (or is in single-threaded construction).
func (e *Engine) publishLocked() error {
	st := &genState{gen: e.wGen}
	layers := e.wBase.Layers()
	if e.memLen() > 0 {
		tree, mdb, err := e.mem.Snapshot()
		if err != nil {
			return err
		}
		idx, err := core.NewMemoryIndex(tree, mdb)
		if err != nil {
			return err
		}
		st.mem, st.memSeqs, st.memRes = idx, e.mem.NumSequences(), e.mem.TotalResidues()
		layers = append(slices.Clip(layers), idx)
	}
	var err error
	if st.view, err = e.wBase.WithLayers(layers, e.tombs); err != nil {
		return err
	}
	e.state.Store(st)
	return nil
}

// memLen is the number of sequences in the memtable.  Caller holds wmu.
func (e *Engine) memLen() int {
	if e.mem == nil {
		return 0
	}
	return e.mem.NumSequences()
}

// ensureIDIndexLocked lazily builds the live SeqID -> global index map writes
// use for duplicate detection and delete targeting.  Caller holds wmu.
func (e *Engine) ensureIDIndexLocked() {
	if e.idIndex != nil {
		return
	}
	v := e.cur().view // under wmu this is always the latest published state
	cat := v.Catalog()
	idx := make(map[string]int, v.LiveSequences())
	for g := 0; g < cat.NumSequences(); g++ {
		if e.tombs[g] {
			continue
		}
		id := cat.SequenceID(g)
		if id == "" { // hole left by a quarantined shard
			continue
		}
		idx[id] = g
	}
	e.idIndex = idx
}

// Insert adds one sequence to the index.  The sequence becomes searchable
// before Insert returns: it is appended to the in-memory delta, whose index is
// rebuilt over every memtable sequence (one suffixtree.Build, linear in the
// memtable's residues) and published, and the generation bump retargets the
// result cache so subsequent identical queries re-run against the new corpus.
// The residues are copied; IDs must be unique among live sequences
// (re-inserting a deleted ID is allowed and assigns a fresh global index).
// Disk engines hold inserts in memory until Compact persists them.
func (e *Engine) Insert(id string, residues []byte) (uint64, error) {
	if !e.begin() {
		return 0, ErrClosed
	}
	defer e.active.Done()
	if e.immutable {
		return 0, ErrImmutable
	}
	if id == "" {
		return 0, fmt.Errorf("engine: insert needs a sequence ID")
	}
	if len(residues) == 0 {
		return 0, fmt.Errorf("engine: insert of %q has no residues", id)
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.ensureIDIndexLocked()
	if _, ok := e.idIndex[id]; ok {
		return 0, fmt.Errorf("engine: sequence %q already exists", id)
	}
	if e.mem == nil {
		mem, err := suffixtree.NewOnlineBuilder(e.Alphabet())
		if err != nil {
			return 0, err
		}
		e.mem = mem
	}
	res := append([]byte(nil), residues...)
	if err := e.mem.Append(seq.Sequence{ID: id, Residues: res}); err != nil {
		return 0, err
	}
	e.idIndex[id] = e.wBase.NumSequences() + e.mem.NumSequences() - 1
	e.wGen++
	if err := e.publishLocked(); err != nil {
		return 0, err
	}
	e.inserts.Add(1)
	return e.wGen, nil
}

// Delete removes the live sequence with the given ID from search results by
// writing a tombstone: the sequence stays physically present (and remains
// addressable through Catalog for alignment recovery of older streams) but
// every subsequent search filters it during the merge, and the all-sequences
// early stop shrinks accordingly.  The generation bump retargets the result
// cache.  Disk engines persist tombstones at the next Compact.
func (e *Engine) Delete(id string) (uint64, error) {
	if !e.begin() {
		return 0, ErrClosed
	}
	defer e.active.Done()
	if e.immutable {
		return 0, ErrImmutable
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.ensureIDIndexLocked()
	g, ok := e.idIndex[id]
	if !ok {
		return 0, fmt.Errorf("engine: sequence %q is unknown or already deleted", id)
	}
	// Copy-on-write: published views hold the old map, which in-flight
	// searches may still be reading.
	tombs := make(map[int]bool, len(e.tombs)+1)
	for k := range e.tombs {
		tombs[k] = true
	}
	tombs[g] = true
	e.tombs = tombs
	delete(e.idIndex, id)
	e.wGen++
	if err := e.publishLocked(); err != nil {
		return 0, err
	}
	e.deletes.Add(1)
	return e.wGen, nil
}

// Compact seals the memtable as a layer of the durable view and returns the
// resulting generation (unchanged when there was nothing to do).  The sealed
// layer is the index the last publish built, the one every search since has
// read, so no reader can tell a compaction happened: hits keep their global
// sequence indexes, deleted sequences stay physically present (tombstoned,
// filtered by every search) and layers accumulate — nothing merges them yet.
//
// A memory engine keeps the sealed index as it is; with an empty memtable
// there is nothing to do, as its tombstones have nothing to persist to.  A
// disk engine writes the sealed tree and the tombstones to the index directory
// as its next generation (diskst.Dir.Commit: one more delta layer beside the
// base shards, crash-safe at every step) and searches the layer it returns in
// the sealed index's place.  A failed commit, injected faults included,
// changes nothing: the memtable keeps serving at the old generation and a
// retry starts over.
func (e *Engine) Compact() (uint64, error) {
	if !e.begin() {
		return 0, ErrClosed
	}
	defer e.active.Done()
	if e.immutable {
		return 0, ErrImmutable
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.memLen() == 0 && (e.dir == nil || len(e.tombs) == len(e.dir.Tombstones())) {
		return e.wGen, nil // nothing new to seal or persist
	}
	if e.cur().memSeqs != e.memLen() { // a publish failed after an Append
		if err := e.publishLocked(); err != nil {
			return e.wGen, err
		}
	}
	layers, sealed := e.wBase.Layers(), e.cur().mem
	if e.dir != nil {
		var tree *suffixtree.Tree // nil: the tombstones alone
		if sealed != nil {
			tree = sealed.Tree()
		}
		idx, err := e.dir.Commit(e.wGen+1, tree, slices.Collect(maps.Keys(e.tombs)))
		if err != nil {
			return e.wGen, fmt.Errorf("engine: compaction: %w", err)
		}
		if idx != nil {
			layers = append(slices.Clip(layers), idx)
		}
	} else {
		layers = append(slices.Clip(layers), sealed)
	}
	e.mem = nil
	// The durable view as the directory now records it (memory engines: as
	// this process holds it).  Nothing from here on can fail: WithLayers
	// refuses only provider-backed engines, which Compact turned away as
	// immutable, and publishing has no memtable to freeze.
	e.wBase, _ = e.wBase.WithLayers(layers, e.tombs)
	e.wGen++
	e.compactions.Add(1)
	return e.wGen, e.publishLocked()
}
