// Package shard merges boundable hit streams into one globally score-ordered
// stream: the paper's online decreasing-score contract, kept across any number
// of concurrent searchers.
//
// The one unit the engine knows is a STREAM: something that reports hits in
// decreasing score order and publishes a decreasing bound — the f-value at the
// head of its searcher's priority queue — capping every score it can still
// report.  One merger (merge.go) consumes any set of streams and releases a
// buffered hit as soon as its score is strictly above every unfinished
// stream's latest bound, so no stream has to finish before the strongest hits
// start flowing.  Everything a query fans out over is an adapter onto that
// unit (Engine.plan), and every stream reports PART-LOCAL sequence indexes:
// each sequence-disjoint piece of the corpus is a contiguous run of global
// indexes (a Part), so one adapter (runStream) places a stream's hits by
// adding its part's first global index.  The stream kinds are:
//
//   - a local index (core.SearchStream).  This serves the base shards of a
//     NewEngine engine — the database cut into contiguous runs of sequences
//     balanced by residue count (seq.PartitionDatabase), each indexed on its
//     own — and equally a view's layers (compacted delta indexes and the
//     memtable snapshot; see WithLayers);
//   - a Provider (provider.go), an opaque stream — in particular a remote
//     shard server's (internal/remote) — of one slice of the corpus.
//
// The merged (sequence, score, rank, E-value) stream is reproducible run to
// run: equal-score ties are released only after every stream that could still
// produce that score has moved past it, in ascending global sequence index —
// so even a top-k truncation (MaxResults) cuts the stream at the same hits
// every time.  (Tie ORDER may still differ from the single-index search,
// which breaks ties by subtree discovery; the hit multiset — same sequences,
// same scores — is identical in all configurations.)
package shard

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// PartitionMode names a way to divide a database among shards.
//
// Deprecated: every engine divides its database by sequence, and NewEngine
// ignores Options.Partition.
type PartitionMode int

// PartitionByPrefix once shared one suffix tree among shards by suffix prefix.
//
// Deprecated: a PartitionByPrefix engine is a sequence-partitioned engine.
const PartitionByPrefix PartitionMode = 1

// Options says how NewEngine divides a database; a directory or a provider
// set arrives divided, and OpenDiskEngine and NewEngineFromProviders take
// none.  Every stream of a query — every shard and every layer — runs at once.
type Options struct {
	// Shards is the number of work partitions (default 1; capped at the
	// number of sequences).
	Shards int
	// Deprecated: ignored; every engine partitions by sequence.
	Partition PartitionMode
}

// Engine is a sharded OASIS search engine over one logical database.  It is
// safe for concurrent use: the indexes are immutable after construction and
// every search draws its scratch buffers from a shared bounded free list, so
// a long-running engine (internal/engine) can multiplex many queries over
// one warm Engine without per-query allocation.
//
// The engine does not care where its shards live; its three constructors are
// three sources: NewEngine builds in-memory suffix trees from a database
// divided as Options says, OpenDiskEngine arranges the disk-resident indexes of an
// open directory (diskst.Dir), each read through its own buffer pool, so shard
// parallelism also parallelises I/O, and NewEngineFromProviders takes opaque
// streams such as remote shard servers.
//
// An Engine value is one VIEW of the corpus — one generation: the base shards
// plus a list of mutable layers and a tombstone set, with the catalog and live
// totals derived from them (WithLayers).  Everything expensive or long-lived
// is in the root every view of one engine shares by pointer, so a view costs
// O(layers + tombstones) to build and lifetime counters stay continuous
// across generations.
type Engine struct {
	*root
	// layers are searched beside the base shards; tombs are the deleted
	// global sequence indexes the merger filters.  Neither is ever mutated
	// once the view exists.
	layers []core.Index
	tombs  map[int]bool
	// cat is the global catalog over base + layers (the base catalog itself
	// when there are none), whose sequence count is the size of the global
	// sequence-index space, tombstoned sequences included; liveRes is the
	// residue count of the live ones, which E-values are computed against.
	cat     core.Catalog
	liveRes int64
}

// root is what every view of one engine shares: the base shards, the pooled
// per-query state and the lifetime counters.
type root struct {
	queryAl *seq.Alphabet
	// parts are the base corpus in global order, and baseCat is the catalog
	// over them alone.  Their totals are the base corpus's as the global
	// numbering defines them: a degraded disk engine's count its quarantined
	// shards too (see OpenDiskEngine).
	parts   []Part
	baseCat core.Catalog
	// base is the engine's own shards, one per work partition.
	base []baseShard
	// closers are resources the engine owns (an index directory, provider
	// connections); see Close.
	closers []io.Closer
	// scratch recycles per-stream searcher state across queries.
	scratch *bufferpool.FreeList[*core.Scratch]
	// affine[s] parks the scratch base shard s's stream used last, so a warm
	// engine re-serves a shard with buffers already sized to its workload
	// (band free lists, node stores).  Without it every pooled scratch grows
	// to a base shard's size: the benchmark's ingest-mixed (one base shard,
	// ~30 layers) peaked 10% higher in RSS on 2 vCPUs.
	affine []atomic.Pointer[core.Scratch]
	// affineReuses counts the streams an affine slot served (ScratchStats).
	affineReuses atomic.Int64
	// active counts, per shard, the searches running (see QueueDepths).
	active []atomic.Int64
	// standing lists shards that were quarantined at open time (e.g. an
	// unreadable disk shard admitted with AllowDegraded); every search over
	// the engine is degraded by them.  quarantines counts shards quarantined
	// mid-query over the engine's lifetime (metrics).
	standing    []core.ShardError
	quarantines atomic.Int64
}

// baseShard is one of the engine's own work partitions: a local index, or an
// opaque provider stream standing in for one.
type baseShard struct {
	// index is the shard's own suffix tree over a run of sequences whose
	// first has global index first.
	index core.Index
	first int
	// provider, when set, replaces the local index (NewEngineFromProviders).
	provider Provider
}

// NewEngine cuts db into opts.Shards contiguous runs of sequences
// (seq.PartitionDatabase) and builds one in-memory index per run.
func NewEngine(db *seq.Database, opts Options) (*Engine, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	runs, err := seq.PartitionDatabase(db, opts.Shards)
	if err != nil {
		return nil, err
	}
	r := &root{parts: []Part{partOf(core.NewDatabaseCatalog(db))}}
	first := 0
	for s, run := range runs {
		idx, err := core.BuildMemoryIndex(run)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.base = append(r.base, baseShard{index: idx, first: first})
		first += run.NumSequences()
	}
	return r.finish(db.Alphabet())
}

// finish is the constructor tail every engine shape shares, run once the base
// parts and base shards are set: it builds the base catalog over alphabet,
// sizes the pooled scratch and per-shard accounting, and returns
// the pristine view (no layers, no tombstones).
func (r *root) finish(alphabet *seq.Alphabet) (*Engine, error) {
	n := len(r.base)
	if n == 0 {
		return nil, fmt.Errorf("shard: engine has no shards")
	}
	r.queryAl = alphabet
	r.baseCat = newCatalog(alphabet, r.parts)
	// Hold enough idle scratches for a few concurrent queries, each using
	// one scratch per stream.
	r.scratch = bufferpool.NewFreeList(4*(n+1), core.NewScratch)
	r.affine = make([]atomic.Pointer[core.Scratch], n)
	r.active = make([]atomic.Int64, n)
	return (&Engine{root: r}).WithLayers(nil, nil)
}

// WithLayers returns the view of e's base shards under the given mutable
// context.  A layer is one additional index searched alongside the engine's own
// shards — the engine layer's LSM delta layers: compacted delta files and the
// in-memory memtable snapshot — over a sequence subset disjoint from the base
// shards and from every other layer: one more Part, whose sequences take the
// global indexes that follow the base corpus and the layers before it, in
// order (the numbering a diskst manifest's delta records keep).  Layers
// stream beside the base shards through the one merger, tombstoned sequences
// (global indexes) are filtered out of the merged stream, and the catalog,
// the index-space size and the live totals that drive E-values and the
// all-sequences early stop are derived here, from the layers' catalogs and
// the tombstone set, and nowhere else.  e's own layers and tombstones are replaced, not extended.  The view
// shares everything else with e — base shards, scratch pool and affine
// slots, lifetime counters, Close — so it costs O(parts + tombstones).
// Neither argument may be modified afterwards.  With neither it is the
// pristine engine.
func (e *Engine) WithLayers(layers []core.Index, tombstones map[int]bool) (*Engine, error) {
	v := &Engine{root: e.root, layers: layers, tombs: tombstones, cat: e.baseCat}
	if v.layered() && e.base[0].provider != nil {
		return nil, fmt.Errorf("shard: provider-backed engines have no mutable layer")
	}
	if len(layers) > 0 {
		parts := slices.Clip(e.parts)
		for _, l := range layers {
			parts = append(parts, partOf(l.Catalog()))
		}
		v.cat = newCatalog(e.queryAl, parts)
	}
	v.liveRes = v.cat.TotalResidues()
	for g := range tombstones {
		v.liveRes -= int64(v.cat.SequenceLength(g))
	}
	return v, nil
}

// layered reports whether the view differs from the pristine engine.
func (e *Engine) layered() bool { return len(e.layers)+len(e.tombs) > 0 }

// Layers and Tombstones return the view's mutable context as WithLayers was
// given it (OpenDiskEngine: as the directory records it), so a writer can
// extend it into the next generation.  Callers must not modify either.
func (e *Engine) Layers() []core.Index     { return e.layers }
func (e *Engine) Tombstones() map[int]bool { return e.tombs }

// NumSequences is the size of the view's global sequence-index space: base
// plus layers, tombstoned sequences included.  LiveSequences and LiveResidues
// describe what a search can reach after tombstone filtering.
func (e *Engine) NumSequences() int   { return e.cat.NumSequences() }
func (e *Engine) LiveSequences() int  { return e.NumSequences() - len(e.tombs) }
func (e *Engine) LiveResidues() int64 { return e.liveRes }

// Catalog returns the engine's global sequence catalog (hit sequence indexes
// are global, so alignment recovery and metadata lookups go through it).
func (e *Engine) Catalog() core.Catalog { return e.cat }

// Close releases resources the engine owns (disk index files, provider
// connections).  In-memory engines own nothing and Close is a no-op.
// Close does not wait for in-flight searches; callers must drain first.
func (e *Engine) Close() error {
	var first error
	for _, c := range e.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// ScratchStats reports how often shard searches reused scratch buffers — a
// shard's affine slot or the shared pool — instead of allocating fresh ones.
func (e *Engine) ScratchStats() bufferpool.FreeListStats {
	st := e.scratch.Stats()
	n := e.affineReuses.Load()
	st.Gets += n
	st.Reuses += n
	return st
}

// QueueDepth is one shard's instantaneous load: the searches running on it.
type QueueDepth struct {
	Shard  int   `json:"shard"`
	Active int64 `json:"active"`
}

// QueueDepths returns a snapshot of every shard's active search count
// (capacity-planning metric; see cmd/oasis-serve's /metrics).
func (e *Engine) QueueDepths() []QueueDepth {
	out := make([]QueueDepth, len(e.base))
	for s := range out {
		out[s] = QueueDepth{Shard: s, Active: e.active[s].Load()}
	}
	return out
}

// Standing returns the shards quarantined at open time (nil for a healthy
// engine).  Every search over an engine with standing quarantines reports
// Degraded with these errors.
func (e *Engine) Standing() []core.ShardError { return e.standing }

// Quarantines returns how many shards have been quarantined mid-query over
// the engine's lifetime (each degraded query counts its failed shards).
func (e *Engine) Quarantines() int64 { return e.quarantines.Load() }

// Steals returns 0: no stream ever takes another's work.
//
// Deprecated: it reads 0 by construction.
func (e *Engine) Steals() int64 { return 0 }

// NumShards returns the number of work partitions.
func (e *Engine) NumShards() int { return len(e.base) }

// event is one message from a stream goroutine to the merger.
type event struct {
	shard int
	kind  eventKind
	hit   core.Hit
	bound int
	stats core.Stats
	err   error
}

type eventKind uint8

const (
	evBound eventKind = iota
	evHit
	evDone
)

// Search runs the query on every stream of the view — base shards and layers
// — and streams the merged hits, tombstoned sequences filtered, to report in
// globally decreasing score order, exactly as core.Search does on a single
// index.  Per-shard work counters are merged into opts.Stats via
// Stats.Add; hit ranks are assigned by the merger.  Returning false from
// report cancels every shard search.
func (e *Engine) Search(query []byte, opts core.Options, report func(core.Hit) bool) error {
	return e.search(query, opts, report, nil, nil)
}

// Slot is a caller's hold on one of a scarce set of search slots, which
// SearchYield gives back while the merge waits on remote slices.  Take's
// error ends the search with that error.
type Slot interface {
	Give()
	Take() error
}

// SearchYield is Search for a caller holding a search slot (a nil slot is
// plain Search).  On a provider-backed engine the sweeps run on other hosts,
// so whenever the merge has no event to merge and must wait on a provider
// stream, it gives the slot back and takes it again once an event arrives:
// queries waiting on the network hold no slot.  An engine with local streams
// keeps the slot throughout, as its streams sweep in this process.
func (e *Engine) SearchYield(query []byte, opts core.Options, report func(core.Hit) bool, slot Slot) error {
	if e.base[0].provider == nil {
		slot = nil
	}
	return e.search(query, opts, report, nil, slot)
}

// SearchBounded is Search with a second online output: alongside the merged
// decreasing-score hit stream, bound publishes a decreasing upper bound on
// every hit the stream can still emit (the max frontier bound among the
// engine's unfinished streams).  It is the per-stream (hit, bound) contract of
// core.SearchStream lifted to the whole engine, which is exactly what a shard
// SERVER needs to re-export its locally merged stream as one provider stream
// a coordinator can merge with strict release (internal/remote).  A nil bound
// is plain Search.  Returning false from either callback cancels the search.
//
// Unlike Search, a single-shard engine also routes through the merger here,
// so equal-score ties are always released in ascending global sequence index
// — the canonical merged order a coordinator reproduces.
func (e *Engine) SearchBounded(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	return e.search(query, opts, hit, bound, nil)
}

// search is the one search path: plan the query's streams, merge them.
// bsink, when non-nil, receives the merged stream's own decreasing bound;
// slot, when non-nil, is given back while the merge waits on its streams.
func (e *Engine) search(query []byte, opts core.Options, report func(core.Hit) bool, bsink func(int) bool, slot Slot) error {
	// A query cancelled before it starts runs nothing: every stream's
	// searcher would sweep a poll interval of columns before noticing.
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if err := e.applyStanding(opts); err != nil {
		return err
	}
	if b := &e.base[0]; len(e.base) == 1 && b.index != nil && !e.layered() && bsink == nil {
		// One local index and nothing to merge it with is the single-index
		// search; skip the merge machinery.
		n := 0
		if opts.Scratch == nil {
			sc := e.scratch.Get()
			opts.Scratch = sc
			defer e.scratch.Put(sc)
		}
		e.active[0].Add(1)
		defer e.active[0].Add(-1)
		return core.Search(b.index, query, opts, func(h core.Hit) bool {
			h.SeqIndex += b.first
			n++
			h.Rank = n
			return report(h)
		})
	}
	if err := opts.Scheme.Validate(); err != nil {
		return err
	}
	return e.fanOutMerge(query, opts, report, bsink, slot)
}

// applyStanding folds open-time quarantines into the query: strict mode
// refuses to serve, otherwise the query is marked degraded by them.
func (e *Engine) applyStanding(opts core.Options) error {
	if len(e.standing) == 0 {
		return nil
	}
	if opts.StrictShards {
		return fmt.Errorf("shard: %d shard(s) quarantined at open (first: %s) and StrictShards is set",
			len(e.standing), e.standing[0].Err)
	}
	if opts.Stats != nil {
		opts.Stats.Degraded = true
		opts.Stats.ShardErrors = append(opts.Stats.ShardErrors, e.standing...)
	}
	return nil
}

// stream is the unit the engine fans out and the merger consumes: one
// decreasing-score hit stream under a decreasing bound.
type stream struct {
	// slot is the base shard whose active counter and affine scratch the
	// stream uses, or -1 for a layer, which has neither.
	slot int
	// first is the global index of the first sequence of the part the stream
	// searches; runStream adds it to every hit.
	first int
	// run has the Provider.Stream contract (hits carry part-local indexes).
	run func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error
}

// localStream adapts a local index to a stream over the part starting at
// global index first.
func localStream(idx core.Index, first int, query []byte, slot int) stream {
	return stream{slot: slot, first: first, run: func(opts core.Options, hit func(core.Hit) bool, frontier func(int) bool) error {
		return core.SearchStream(idx, query, opts, hit, frontier)
	}}
}

// plan lists the query's streams: the engine's base shards followed by the
// view's layers.
func (e *Engine) plan(query []byte) []stream {
	streams := make([]stream, 0, len(e.base)+len(e.layers))
	for s, b := range e.base {
		if b.provider == nil {
			streams = append(streams, localStream(b.index, b.first, query, s))
			continue
		}
		streams = append(streams, stream{slot: s, first: b.first, run: func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
			return b.provider.Stream(query, opts, hit, bound)
		}})
	}
	// Each layer is its own small suffix tree over sequences no other stream
	// holds, numbered on from the base corpus.
	first := e.baseCat.NumSequences()
	for _, l := range e.layers {
		streams = append(streams, localStream(l, first, query, -1))
		first += l.Catalog().NumSequences()
	}
	return streams
}

// rootBound is the strongest f any search over this query can hold (max
// heuristic among unpruned query positions): the merger's initial bound for
// every stream that has not published a bound of its own yet (or even been
// scheduled).
func (e *Engine) rootBound(query []byte, opts core.Options) int {
	rootBound := score.NegInf
	if e.queryAl.ValidCodes(query) && opts.Scheme.Matrix.Alphabet() == e.queryAl {
		for _, hi := range core.HeuristicVector(query, opts.Scheme.Matrix) {
			if hi >= opts.MinScore && hi > rootBound {
				rootBound = hi
			}
		}
	}
	return rootBound
}

// fanOutMerge runs the query's streams (plan): one goroutine per stream, all
// at once — a stream that has not started holds the merger at its initial
// bound, so queueing one would delay every release — each adapted into
// merger events by runStream, merged by a merger configured with the
// streams' initial bound and the view's tombstone filter and live totals.
// The per-stream counters are merged into opts.Stats once every stream has
// unwound.  bsink, when non-nil, receives the merged stream's own decreasing
// upper bound (SearchBounded); slot, when non-nil, is given back while the
// merger waits for an event (SearchYield).
func (e *Engine) fanOutMerge(query []byte, opts core.Options, report func(core.Hit) bool, bsink func(int) bool, slot Slot) error {
	streams := e.plan(query)
	n := len(streams)
	events := make(chan event, 4*n+16)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	// E-values depend on the global database size; they are attached by the
	// merger, not the stream.
	streamOpts := opts
	streamOpts.KA = nil
	if len(e.tombs) > 0 {
		// A stream could spend a budget of MaxResults hits on tombstoned
		// sequences the merger then drops, starving the merged stream of live
		// hits the stream never got to report.
		streamOpts.MaxResults = 0
	}
	rb := e.rootBound(query, opts)
	bounds := make([]int, n)
	for s := range streams {
		st := &streams[s]
		bounds[s] = rb
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Layers (slot -1) have no active counter: those size to the
			// engine's own shards.
			if st.slot >= 0 {
				e.active[st.slot].Add(1)
				defer e.active[st.slot].Add(-1)
			}
			e.runStream(s, st, streamOpts, events, &cancelled)
		}()
	}
	m := newMerger(bounds, opts, e.liveRes, len(query), report)
	m.onBound = bsink
	m.slot = slot
	if e.layered() {
		m.drop = e.tombs
		m.stopAt = e.LiveSequences()
	}
	err := m.run(events, &cancelled)
	wg.Wait()
	e.quarantines.Add(int64(len(m.degraded)))
	if opts.Stats != nil {
		// Streams race until cancellation, so together they may report more
		// hits than the merger released: the reply counts what it delivered.
		for _, st := range m.shardStats {
			st.SequencesReported = 0
			opts.Stats.Add(st)
		}
		opts.Stats.SequencesReported += int64(m.nEmitted)
		if len(m.degraded) > 0 {
			opts.Stats.Degraded = true
			opts.Stats.ShardErrors = append(opts.Stats.ShardErrors, m.degraded...)
		}
	}
	return err
}

// runStream executes stream s of a query and adapts it into merger events:
// hits, placed in the global numbering by the stream's first index, and
// strictly decreasing frontier bounds are forwarded until cancellation, then
// completion is signalled with the stream's work counters.
func (e *Engine) runStream(s int, st *stream, opts core.Options, events chan<- event, cancelled *atomic.Bool) {
	if faultpoint.Active() {
		if err := faultpoint.Hit(faultpoint.SiteShardWorker, fmt.Sprintf("shard-%d", s)); err != nil {
			events <- event{shard: s, kind: evDone, err: fmt.Errorf("shard %d: %w", s, err)}
			return
		}
	}
	var stats core.Stats
	opts.Stats = &stats
	// Each stream gets its own scratch (a Scratch serves one search at a
	// time); the caller's Scratch cannot be shared by the concurrent stream
	// goroutines.  A base shard's affine slot is tried first, then the
	// shared pool.
	var sc *core.Scratch
	if st.slot >= 0 {
		sc = e.affine[st.slot].Swap(nil)
	}
	if sc == nil {
		sc = e.scratch.Get()
	} else {
		e.affineReuses.Add(1)
	}
	opts.Scratch = sc
	defer func() {
		if st.slot >= 0 && e.affine[st.slot].CompareAndSwap(nil, sc) {
			return
		}
		e.scratch.Put(sc)
	}()
	lastBound := int(^uint(0) >> 1) // MaxInt
	err := st.run(opts,
		func(h core.Hit) bool {
			if cancelled.Load() {
				return false
			}
			h.Rank = 0
			h.SeqIndex += st.first
			events <- event{shard: s, kind: evHit, hit: h}
			return true
		},
		func(bound int) bool {
			if cancelled.Load() {
				return false
			}
			if bound < lastBound {
				lastBound = bound
				events <- event{shard: s, kind: evBound, bound: bound}
			}
			return true
		})
	events <- event{shard: s, kind: evDone, stats: stats, err: err}
}

// SearchAll runs Search and collects every hit.
func (e *Engine) SearchAll(query []byte, opts core.Options) ([]core.Hit, error) {
	var hits []core.Hit
	err := e.Search(query, opts, func(h core.Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}
