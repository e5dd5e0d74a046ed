// Mutable layer: LSM-style incremental indexing over the immutable base
// index.
//
// A generation is a VIEW: one shard.Engine value over the base shards, the
// compacted delta layers, the memtable snapshot and the tombstone set
// (shard.Engine.WithLayers), which derives the global catalog and the live
// totals itself and is searched like any other shard engine.  This file is the
// WRITER of generations and nothing else.  Inserts land in an in-memory delta
// built with the online Ukkonen construction
// (internal/suffixtree.OnlineBuilder); deletes add per-sequence tombstones;
// every write builds the next view and publishes it as an immutable genState
// that searches pin for their whole run.  Compaction folds the frozen
// memtable into an ordinary single-file disk index and swaps a
// generation-numbered manifest atomically (disk engines), or rebuilds the
// base in-memory engine over the live corpus (memory engines).  Reading a
// directory's generation back — opening its delta layers and tombstones — is
// shard.OpenDiskEngine's job alone; the writer continues from the view it
// returns.
//
// Durability contract (disk engines): inserts and deletes are memory-only
// until Compact persists them — the engine is an LSM without a WAL.  A crash
// between a write and the next Compact loses the uncompacted writes but never
// the on-disk index: the manifest swap is write-temp + fsync + rename, so the
// directory always opens at its last durable generation.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/faultpoint"
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
	db   *seq.Database // base database (nil for disk engines)
	// memSeqs/memRes size the uncompacted memtable, the view's last layer.
	memSeqs int
	memRes  int64
}

// MutableStats snapshots the incremental-indexing state for Metrics.
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
	// DeltaLayers counts searchable delta layers (compacted disk deltas plus
	// the memtable snapshot, when non-empty).
	DeltaLayers int `json:"delta_layers"`
	// Tombstones counts deleted sequences still physically present.
	Tombstones int `json:"tombstones"`
	// LiveSequences / LiveResidues describe the searchable corpus after
	// tombstone filtering.
	LiveSequences int   `json:"live_sequences"`
	LiveResidues  int64 `json:"live_residues"`
}

// Generation returns the engine's current index generation.
func (e *Engine) Generation() uint64 { return e.cur().gen }

// ErrImmutable is returned by Insert, Delete and Compact on engines whose
// base index is not writable from this process (NewFromShardEngine: the
// corpus lives in the remote slices' serving processes — write to those).
var ErrImmutable = fmt.Errorf("engine: index is immutable here; write to the shard servers that own the corpus")

// initMutable wires the writer under a freshly opened base view and publishes
// the initial generation.  For disk engines base already carries the delta
// layers and tombstones of the directory's manifest, and the generation
// continues from the manifest's.
func (e *Engine) initMutable(base *shard.Engine, db *seq.Database, opts Options) error {
	e.wBase = base
	e.wDB = db
	e.tombs = base.Tombstones()
	e.opts = opts
	if opts.IndexDir != "" {
		e.manifest = base.Disk().Manifest
		e.wGen = e.manifest.Generation
	}
	return e.publishLocked()
}

// publishLocked builds the view for the writer's current fields — the durable
// view's layers, the memtable snapshot as one more, the current tombstones —
// and publishes it.  Caller holds wmu (or is in single-threaded construction).
func (e *Engine) publishLocked() error {
	st := &genState{gen: e.wGen, db: e.wDB}
	layers := e.wBase.Layers()
	if e.mem != nil && e.mem.NumSequences() > 0 {
		tree, mdb, err := e.mem.Snapshot()
		if err != nil {
			return err
		}
		idx, err := core.NewMemoryIndex(tree, mdb)
		if err != nil {
			return err
		}
		st.memSeqs, st.memRes = e.mem.NumSequences(), e.mem.TotalResidues()
		layers = append(slices.Clip(layers), shard.Layer{Index: idx, Globals: e.memGlobalsLocked()})
	}
	var err error
	if st.view, err = e.wBase.WithLayers(layers, e.tombs); err != nil {
		return err
	}
	e.state.Store(st)
	return nil
}

// memGlobalsLocked numbers the memtable's sequences: densely after everything
// the durable view holds.
func (e *Engine) memGlobalsLocked() []int {
	first := e.wBase.NumSequences()
	globals := make([]int, e.mem.NumSequences())
	for i := range globals {
		globals[i] = first + i
	}
	return globals
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
// before Insert returns: it is appended to the in-memory delta (online
// Ukkonen construction, O(len) amortised), a fresh snapshot is published, and
// the generation bump retargets the result cache so subsequent identical
// queries re-run against the new corpus.  The residues are copied; IDs must
// be unique among live sequences (re-inserting a deleted ID is allowed and
// assigns a fresh global index).  Disk engines hold inserts in memory until
// Compact persists them.
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

// Compact folds the mutable state down a level and returns the resulting
// generation (unchanged when there was nothing to do).
//
// Disk engines write the frozen memtable as an ordinary single-file delta
// index next to the base shards — build to a temporary name, fsync, rename —
// then swap in a manifest with a bumped generation (also atomically), reopen
// the delta through its own buffer pool and reset the memtable.  A crash (or
// injected fault at faultpoint.SiteCompactSwap) at any point leaves the
// previous manifest and files intact.
//
// Memory engines rebuild the base engine over the live corpus (dropping
// tombstoned sequences and folding in the delta, renumbering globals) and
// reset the mutable state entirely.
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
	if e.opts.IndexDir != "" {
		return e.compactDiskLocked()
	}
	return e.compactMemoryLocked()
}

func (e *Engine) compactDiskLocked() (uint64, error) {
	memN := 0
	if e.mem != nil {
		memN = e.mem.NumSequences()
	}
	if memN == 0 && len(e.tombs) == len(e.manifest.Tombstones) {
		return e.wGen, nil // nothing new to fold or persist
	}
	gen := e.wGen + 1
	m := *e.manifest
	m.Generation = gen
	m.Deltas = append([]diskst.DeltaRecord(nil), e.manifest.Deltas...)
	m.Tombstones = make([]int, 0, len(e.tombs))
	for g := range e.tombs {
		m.Tombstones = append(m.Tombstones, g)
	}
	sort.Ints(m.Tombstones)

	layers := e.wBase.Layers()
	var newIdx *diskst.Index
	if memN > 0 {
		name := fmt.Sprintf("delta-%06d.oasis", gen)
		mdb, err := seq.NewDatabase(e.Alphabet(), append([]seq.Sequence(nil), e.mem.Sequences()...))
		if err != nil {
			return e.wGen, err
		}
		tmp := filepath.Join(e.opts.IndexDir, name+".tmp")
		if _, err := diskst.Build(tmp, mdb, diskst.BuildOptions{BlockSize: m.BlockSize}); err != nil {
			os.Remove(tmp)
			return e.wGen, fmt.Errorf("engine: building delta %s: %w", name, err)
		}
		// The swap site models a crash after the delta is written but before
		// it becomes reachable: the old manifest stays authoritative.
		if err := faultpoint.Hit(faultpoint.SiteCompactSwap, name); err != nil {
			os.Remove(tmp)
			return e.wGen, fmt.Errorf("engine: compaction swap: %w", err)
		}
		if err := os.Rename(tmp, filepath.Join(e.opts.IndexDir, name)); err != nil {
			os.Remove(tmp)
			return e.wGen, err
		}
		globals := e.memGlobalsLocked()
		m.Deltas = append(m.Deltas, diskst.DeltaRecord{File: name, GlobalIndex: globals, Residues: mdb.TotalResidues()})
		if newIdx, err = e.manifest.OpenFile(e.opts.IndexDir, name, e.opts.PoolBytes); err != nil {
			// Manifest not yet written: the directory is still consistent at
			// the old generation; the new file is an unreachable orphan.
			return e.wGen, fmt.Errorf("engine: reopening delta %s: %w", name, err)
		}
		layers = append(slices.Clip(layers), shard.Layer{Index: newIdx, Globals: globals})
	}
	// The durable view as the new manifest describes it — what reopening the
	// directory would return.
	durable, err := e.wBase.WithLayers(layers, e.tombs)
	if err == nil {
		err = diskst.WriteManifest(e.opts.IndexDir, &m)
	}
	if err != nil {
		if newIdx != nil {
			newIdx.Close()
		}
		return e.wGen, err
	}
	// The new manifest is durable; swap the in-memory state to match.
	e.manifest = &m
	e.wBase = durable
	if newIdx != nil {
		e.closers = append(e.closers, newIdx)
		e.mem = nil
	}
	e.wGen = gen
	if err := e.publishLocked(); err != nil {
		return e.wGen, err
	}
	e.compactions.Add(1)
	return e.wGen, nil
}

func (e *Engine) compactMemoryLocked() (uint64, error) {
	memN := 0
	if e.mem != nil {
		memN = e.mem.NumSequences()
	}
	if memN == 0 && len(e.tombs) == 0 {
		return e.wGen, nil // pristine: nothing to fold
	}
	baseSeqs := e.wBase.NumSequences()
	var live []seq.Sequence
	for g, s := range e.wDB.Sequences() {
		if !e.tombs[g] {
			live = append(live, s)
		}
	}
	if e.mem != nil {
		for i, s := range e.mem.Sequences() {
			if !e.tombs[baseSeqs+i] {
				live = append(live, s)
			}
		}
	}
	if len(live) == 0 {
		return e.wGen, fmt.Errorf("engine: refusing to compact away the last live sequence; the corpus would be empty")
	}
	newDB, err := seq.NewDatabase(e.Alphabet(), live)
	if err != nil {
		return e.wGen, err
	}
	newBase, err := shard.NewEngine(newDB, e.opts.shardOptions())
	if err != nil {
		return e.wGen, err
	}
	// Retire the old base: in-flight searches pinned it, so it is closed
	// only when the engine closes.
	e.closers = append(e.closers, e.wBase)
	e.wBase = newBase
	e.wDB = newDB
	e.mem = nil
	e.tombs = nil
	e.idIndex = nil // renumbered: rebuild lazily
	e.wGen++
	if err := e.publishLocked(); err != nil {
		return e.wGen, err
	}
	e.compactions.Add(1)
	return e.wGen, nil
}
