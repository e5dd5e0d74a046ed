package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/align"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/suffixtree"
)

// smallPoolBytes is the "smaller than the index" pool of the ladder's
// diskst-small rung; the disk-topk workload uses the same size per shard.
const smallPoolBytes = 1 << 20

// swQueries bounds the Smith-Waterman rung: the baseline costs ~3x a whole
// OASIS search per query, and its median settles on far fewer queries.
const swQueries = 40

// rung is one pass of the ladder: the same queries through one layer's
// public search function, one span per call.
type rung struct {
	name string
	// base names the rung this one is measured against ("" for the bottom).
	base   string
	starts []time.Time
	ends   []time.Time
}

// ladder is the per-layer measurement from outside the layers: it times calls
// into each package's exported functions, in-process, on the run's corpus and
// the first sc.ladder timed queries, and records one span per search call.
// Every duration is taken on the calibrated clock, like the end-to-end times
// (see clock.go).  The layers run bottom-up; each leaves what the ones above
// it are measured against.
type ladder struct {
	h   *harness
	ctx context.Context
	qs  []query
	m   map[string]metricValue
	// rungs collects every search pass, for the trace file.
	rungs []*rung

	db        *seq.Database
	tree      *suffixtree.Tree
	coreRung  *rung
	coreStats core.Stats
	shardEng  *shard.Engine
	// Median search times of the rungs others are compared with.
	coreMs, topkMs, shard1Ms, engineMs float64
}

// runLadder measures every layer and files the numbers in m under the
// layers' names.
func (h *harness) runLadder(ctx context.Context, m map[string]metricValue) error {
	l := &ladder{h: h, ctx: ctx, m: m, qs: h.in.queries[h.sc.warmup : h.sc.warmup+h.sc.ladder]}
	defer func() {
		if l.shardEng != nil {
			l.shardEng.Close()
		}
	}()
	for _, layer := range []func() error{l.seqLayer, l.treeLayer, l.coreLayer, l.alignLayer, l.shardLayer,
		l.engineLayer, l.cacheLayer, l.diskLayer, l.remoteLayer, l.serveLayer} {
		if err := layer(); err != nil {
			return err
		}
	}
	if h.trace != nil {
		for _, r := range l.rungs {
			for i := range l.qs {
				h.trace.add(0, l.qs[i].id, r.name, r.base, r.starts[i], r.ends[i])
			}
		}
	}
	return nil
}

func (l *ladder) put(name string, v float64, unit string, samples int) {
	l.m[name] = metricValue{Value: v, Unit: unit, N: samples}
}

// elapsed is the calibrated time since t.
func (l *ladder) elapsed(t time.Time) time.Duration { return l.h.clock.calibrated(t, time.Now()) }
func (l *ladder) since(t time.Time) float64         { return ms(l.elapsed(t)) }

// opts is the search configuration of query i, the same at every rung.
func (l *ladder) opts(i int) core.Options {
	return core.Options{Scheme: l.h.in.scheme, MinScore: l.qs[i].minScore}
}

func discard(core.Hit) bool { return true }

// pass times search(i) for every query and keeps the spans under name.
func (l *ladder) pass(name, base string, search func(i int) error) (*rung, error) {
	n := len(l.qs)
	r := &rung{name: name, base: base, starts: make([]time.Time, n), ends: make([]time.Time, n)}
	for i := range l.qs {
		r.starts[i] = time.Now()
		if err := search(i); err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, l.qs[i].id, err)
		}
		r.ends[i] = time.Now()
	}
	l.rungs = append(l.rungs, r)
	return r, nil
}

// callMs is the calibrated duration of the rung's i-th call.
func (l *ladder) callMs(r *rung, i int) float64 {
	return l.h.calMs(interval{r.starts[i], r.ends[i]})
}

func (l *ladder) medianMs(r *rung) float64 {
	d := make([]float64, len(r.starts))
	for i := range d {
		d[i] = l.callMs(r, i)
	}
	return median(d)
}

func (l *ladder) seqLayer() error {
	t := time.Now()
	db, err := seq.ReadFASTAFile(l.h.corpusPath, seq.Protein)
	if err != nil {
		return err
	}
	l.db = db
	l.put("seq.fasta_parse_ms", l.since(t), "ms", 1)
	rng := rand.New(rand.NewSource(l.h.in.seed))
	positions := make([]int64, 1<<16)
	for i := range positions {
		positions[i] = rng.Int63n(db.ConcatLen())
	}
	t = time.Now()
	for _, p := range positions {
		if _, _, err := db.Locate(p); err != nil {
			return err
		}
	}
	l.put("seq.locate_ns", float64(l.elapsed(t).Nanoseconds())/float64(len(positions)), "ns", len(positions))
	return nil
}

func (l *ladder) treeLayer() error {
	t := time.Now()
	tree, err := suffixtree.BuildUkkonen(l.db)
	if err != nil {
		return err
	}
	l.tree = tree
	l.put("suffixtree.build_ms", l.since(t), "ms", 1)
	l.put("suffixtree.nodes_per_residue", float64(tree.NumNodes())/float64(l.db.TotalResidues()), "ratio", 0)
	ob, err := suffixtree.NewOnlineBuilder(seq.Protein)
	if err != nil {
		return err
	}
	var appendUs []float64
	for _, s := range l.inserts() {
		t = time.Now()
		if err := ob.Append(s); err != nil {
			return err
		}
		// Normalised to a 256-residue sequence (the generator's mean).
		appendUs = append(appendUs, float64(l.elapsed(t).Nanoseconds())/1e3*256/float64(max(1, s.Len())))
	}
	l.put("suffixtree.online_append_us", median(appendUs), "us", len(appendUs))
	t = time.Now()
	if _, _, err := ob.Snapshot(); err != nil {
		return err
	}
	l.put("suffixtree.snapshot_ms_at_500", l.since(t), "ms", 1)
	return nil
}

// inserts is the held-out sequences the write-path rungs insert.
func (l *ladder) inserts() []seq.Sequence {
	return l.h.in.heldOut[:min(l.h.sc.ladderInserts, len(l.h.in.heldOut))]
}

func (l *ladder) coreLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	t := time.Now()
	mem, err := core.NewMemoryIndex(l.tree, l.db)
	if err != nil {
		return err
	}
	l.put("core.memindex_build_ms", l.since(t), "ms", 1)
	scratch := core.NewScratch()
	st := &l.coreStats
	firstHit := make([]float64, 0, n)
	l.coreRung, err = l.pass("core.Search", "", func(i int) error {
		o := l.opts(i)
		o.Scratch, o.Stats = scratch, st
		start, seen := time.Now(), false
		return core.Search(mem, l.qs[i].residues, o, func(core.Hit) bool {
			if !seen {
				seen = true
				firstHit = append(firstHit, l.since(start))
			}
			return true
		})
	})
	if err != nil {
		return err
	}
	l.coreMs = l.medianMs(l.coreRung)
	l.put("core.search_ms", l.coreMs, "ms", n)
	l.put("core.first_hit_ms", median(firstHit), "ms", len(firstHit))
	l.put("core.columns_per_query", float64(st.ColumnsExpanded)/fn, "count", n)
	l.put("core.cells_per_query", float64(st.CellsComputed)/fn, "count", n)
	l.put("core.nodes_pushed_per_query", float64(st.NodesPushed)/fn, "count", n)
	l.put("core.hits_per_query", float64(st.SequencesReported)/fn, "count", n)
	l.put("core.columns_per_hit", float64(st.ColumnsExpanded)/float64(max(1, st.SequencesReported)), "count", n)
	l.put("core.max_queue", float64(st.MaxQueueSize), "count", n)
	l.put("core.max_band_width", float64(st.MaxBandWidth), "count", n)
	totalMs := 0.0
	for i := range l.qs {
		totalMs += l.callMs(l.coreRung, i)
	}
	l.put("core.ns_per_column", totalMs*1e6/float64(max(1, st.ColumnsExpanded)), "ns", n)
	topk, err := l.pass("core.Search/top10", "core.Search", func(i int) error {
		o := l.opts(i)
		o.Scratch, o.MaxResults = scratch, 10
		return core.Search(mem, l.qs[i].residues, o, discard)
	})
	if err != nil {
		return err
	}
	l.topkMs = l.medianMs(topk)
	l.put("core.topk_search_ms", l.topkMs, "ms", n)
	ref, err := l.pass("core.Search/refkernel", "core.Search", func(i int) error {
		o := l.opts(i)
		o.Scratch, o.ReferenceKernel = scratch, true
		return core.Search(mem, l.qs[i].residues, o, discard)
	})
	if err != nil {
		return err
	}
	l.put("core.refkernel_over_band", l.medianMs(ref)/l.coreMs, "ratio", n)
	return nil
}

// alignLayer is the paper's baseline on the first swQueries queries.
func (l *ladder) alignLayer() error {
	n := min(swQueries, len(l.qs))
	sw, coreSame := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := align.SearchDatabase(l.db, l.qs[i].residues, l.h.in.scheme, align.Options{MinScore: l.qs[i].minScore}); err != nil {
			return err
		}
		sw[i] = l.since(t)
		coreSame[i] = l.callMs(l.coreRung, i)
	}
	l.put("align.sw_ms", median(sw), "ms", n)
	l.put("core.speedup_over_sw", median(sw)/median(coreSame), "ratio", n)
	return nil
}

// shardPass builds a shard engine and runs one pass through it.  The caller
// closes the engine.
func (l *ladder) shardPass(name string, o shard.Options) (*rung, *shard.Engine, core.Stats, error) {
	eng, err := shard.NewEngine(l.db, o)
	if err != nil {
		return nil, nil, core.Stats{}, err
	}
	var st core.Stats
	r, err := l.pass(name, "core.Search", func(i int) error {
		so := l.opts(i)
		so.Stats = &st
		return eng.Search(l.qs[i].residues, so, discard)
	})
	if err != nil {
		eng.Close()
		return nil, nil, st, err
	}
	return r, eng, st, nil
}

func (l *ladder) shardLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	columns := float64(max(1, l.coreStats.ColumnsExpanded))
	shard1, eng, _, err := l.shardPass("shard.Search/1", shard.Options{Shards: 1})
	if err != nil {
		return err
	}
	l.shardEng = eng // kept: the remote layer serves it
	l.shard1Ms = l.medianMs(shard1)
	l.put("shard.search1_ms", l.shard1Ms, "ms", n)
	l.put("shard.overhead_ms", l.shard1Ms-l.coreMs, "ms", n)
	seq2, eng, st, err := l.shardPass("shard.Search/seq2", shard.Options{Shards: 2})
	if err != nil {
		return err
	}
	eng.Close()
	l.put("shard.seq2_ms", l.medianMs(seq2), "ms", n)
	l.put("shard.speedup2_seq", l.shard1Ms/l.medianMs(seq2), "ratio", n)
	l.put("shard.seq2_columns_ratio", float64(st.ColumnsExpanded)/columns, "ratio", n)
	prefix2, eng, st, err := l.shardPass("shard.Search/prefix2", shard.Options{Shards: 2, Partition: shard.PartitionByPrefix})
	if err != nil {
		return err
	}
	l.put("shard.steals_per_query", float64(eng.Steals())/fn, "count", n)
	eng.Close()
	l.put("shard.prefix2_ms", l.medianMs(prefix2), "ms", n)
	l.put("shard.speedup2_prefix", l.shard1Ms/l.medianMs(prefix2), "ratio", n)
	l.put("shard.prefix2_columns_ratio", float64(st.ColumnsExpanded)/columns, "ratio", n)
	return nil
}

// engineLayer: the warm engine with its cache off, a batch, then the write
// path (inserts into a growing memtable, one compaction).
func (l *ladder) engineLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	eng, err := engine.New(l.db, engine.Options{Shards: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	r, err := l.pass("engine.Search", "shard.Search/1", func(i int) error {
		_, err := eng.Search(l.ctx, engine.Query{Residues: l.qs[i].residues, Options: l.opts(i)}, discard)
		return err
	})
	if err != nil {
		return err
	}
	l.engineMs = l.medianMs(r)
	l.put("engine.search_ms", l.engineMs, "ms", n)
	l.put("engine.overhead_ms", l.engineMs-l.shard1Ms, "ms", n)

	batch := make([]engine.Query, n)
	for i := range l.qs {
		batch[i] = engine.Query{ID: l.qs[i].id, Residues: l.qs[i].residues, Options: l.opts(i)}
	}
	beng, err := engine.New(l.db, engine.Options{Shards: 1, BatchWorkers: l.h.nproc})
	if err != nil {
		return err
	}
	defer beng.Close()
	t := time.Now()
	var batchErr error
	for res := range beng.SubmitBatch(l.ctx, batch) {
		if res.Done && res.Err != nil && batchErr == nil {
			batchErr = fmt.Errorf("engine.SubmitBatch %s: %w", res.QueryID, res.Err)
		}
	}
	if batchErr != nil {
		return batchErr
	}
	l.put("engine.batch_qps", fn/l.elapsed(t).Seconds(), "1/s", n)

	var first, last float64
	for i, s := range l.inserts() {
		t = time.Now()
		if _, err := eng.Insert(s.ID, s.Residues); err != nil {
			return err
		}
		last = l.since(t)
		if i == 0 {
			first = last
		}
	}
	l.put("engine.insert_ms_at_1", first, "ms", 1)
	l.put("engine.insert_ms_at_500", last, "ms", 1)
	t = time.Now()
	if _, err := eng.Compact(); err != nil {
		return err
	}
	l.put("engine.compact_ms", l.since(t), "ms", 1)
	return nil
}

// cacheLayer: the second identical search replays the stored stream.
func (l *ladder) cacheLayer() error {
	eng, err := engine.New(l.db, engine.Options{Shards: 1, CacheBytes: 32 << 20})
	if err != nil {
		return err
	}
	defer eng.Close()
	replay := make([]float64, len(l.qs))
	for i := range l.qs {
		q := engine.Query{Residues: l.qs[i].residues, Options: l.opts(i)}
		if _, err := eng.Search(l.ctx, q, discard); err != nil {
			return err
		}
		t := time.Now()
		if _, err := eng.Search(l.ctx, q, discard); err != nil {
			return err
		}
		replay[i] = l.since(t)
	}
	l.put("qcache.replay_ms", median(replay), "ms", len(replay))
	l.put("qcache.entry_kb", 0, "KB", 0)
	if cs := eng.Metrics().Cache; cs != nil && cs.Entries > 0 {
		l.put("qcache.entry_kb", float64(cs.Bytes)/1024/float64(cs.Entries), "KB", cs.Entries)
	}
	return nil
}

// diskPass opens the ladder's disk index through a pool of poolBytes and
// runs one pass of core.Search over it.  The caller closes the index.
func (l *ladder) diskPass(name, path string, poolBytes int64) (*rung, *diskst.Index, error) {
	pool := bufferpool.New(poolBytes, 0)
	t := time.Now()
	idx, err := diskst.Open(path, pool)
	if err != nil {
		return nil, nil, err
	}
	if poolBytes > smallPoolBytes {
		l.put("diskst.open_ms", l.since(t), "ms", 1)
	}
	scratch := core.NewScratch()
	search := func(i int) error {
		o := l.opts(i)
		o.Scratch = scratch
		return core.Search(idx, l.qs[i].residues, o, discard)
	}
	// Some untimed searches first, so the timed pass sees a pool in its
	// steady state instead of compulsory misses (each query touches
	// thousands of pages, so a quarter of the list is plenty).
	for i := range l.qs[:(len(l.qs)+3)/4] {
		if err := search(i); err != nil {
			idx.Close()
			return nil, nil, err
		}
	}
	pool.ResetStats()
	r, err := l.pass(name, "core.Search", search)
	if err != nil {
		idx.Close()
		return nil, nil, err
	}
	return r, idx, nil
}

// poolTotals sums an index's pool counters over its three files.
func poolTotals(idx *diskst.Index) (requests, hits int64) {
	for _, f := range []bufferpool.FileID{idx.InternalFile(), idx.LeavesFile(), idx.SymbolsFile()} {
		st := idx.Pool().Stats(f)
		requests += st.Requests
		hits += st.Hits
	}
	return requests, hits
}

// diskLayer: core.Search over the disk index with a pool that holds the file
// and with one smaller than it, and the pool's hit and fill paths alone.
func (l *ladder) diskLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	path := filepath.Join(l.h.workDir, "ladder.oasis")
	t := time.Now()
	bst, err := diskst.Build(path, l.db, diskst.BuildOptions{})
	if err != nil {
		return err
	}
	l.put("diskst.build_ms", l.since(t), "ms", 1)
	l.put("diskst.bytes_per_residue", float64(bst.FileBytes)/float64(l.db.TotalResidues()), "B", 0)

	warm, idx, err := l.diskPass("core.Search/diskst-warm", path, 64<<20)
	if err != nil {
		return err
	}
	defer idx.Close()
	l.put("diskst.search_ms_warm", l.medianMs(warm), "ms", n)
	l.put("diskst.warm_over_mem", l.medianMs(warm)/l.coreMs, "ratio", n)
	requests, _ := poolTotals(idx)
	l.put("bufferpool.requests_per_query", float64(requests)/fn, "count", n)
	// One 16-byte record on a resident page, then the same read on each of
	// the first pages with every page dropped first.
	pool, file := idx.Pool(), idx.InternalFile()
	var rec [16]byte
	const reads = 1 << 16
	t = time.Now()
	for i := 0; i < reads; i++ {
		if err := pool.ReadAt(file, rec[:], 0); err != nil {
			return err
		}
	}
	l.put("bufferpool.readat_hit_ns", float64(l.elapsed(t).Nanoseconds())/reads, "ns", reads)
	pages := min(256, int(bst.InternalBytes/int64(pool.PageSize())))
	if err := pool.Clear(); err != nil {
		return err
	}
	t = time.Now()
	for p := 0; p < pages; p++ {
		if err := pool.ReadAt(file, rec[:], int64(p)*int64(pool.PageSize())); err != nil {
			return err
		}
	}
	l.put("bufferpool.fill_us", float64(l.elapsed(t).Nanoseconds())/1e3/float64(max(1, pages)), "us", pages)

	small, idx, err := l.diskPass("core.Search/diskst-small", path, smallPoolBytes)
	if err != nil {
		return err
	}
	defer idx.Close()
	l.put("diskst.search_ms_small", l.medianMs(small), "ms", n)
	l.put("diskst.small_over_mem", l.medianMs(small)/l.coreMs, "ratio", n)
	requests, hits := poolTotals(idx)
	l.put("bufferpool.hit_ratio_small", float64(hits)/float64(max(1, requests)), "ratio", n)
	l.put("bufferpool.fills_per_query_small", float64(requests-hits)/fn, "count", n)
	return nil
}

// remoteLayer: the 1-shard engine behind the wire protocol on loopback,
// searched through a coordinator, and one raw stream per query to count what
// crosses the wire.
func (l *ladder) remoteLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: remote.NewServer(l.shardEng)}
	served := make(chan struct{})
	go func() {
		// Serve returns ErrServerClosed on the Close below; a failure to
		// serve at all surfaces as errors from the streams.
		_ = srv.Serve(ln)
		close(served)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	addr := ln.Addr().String()
	co, err := remote.Open(l.ctx, remote.Config{Slices: [][]string{{addr}}})
	if err != nil {
		return err
	}
	defer co.Close()
	r, err := l.pass("remote.Coordinator.Search", "shard.Search/1", func(i int) error {
		return co.Engine().Search(l.qs[i].residues, l.opts(i), discard)
	})
	if err != nil {
		return err
	}
	l.put("remote.stream_ms", l.medianMs(r), "ms", n)
	l.put("remote.overhead_ms", l.medianMs(r)-l.shard1Ms, "ms", n)
	var events, wireBytes int64
	for i := range l.qs {
		e, b, err := l.rawStream(addr, &l.qs[i])
		if err != nil {
			return err
		}
		events, wireBytes = events+e, wireBytes+b
	}
	l.put("remote.events_per_query", float64(events)/fn, "count", n)
	l.put("remote.bytes_per_event", float64(wireBytes)/float64(max(1, events)), "B", int(events))
	return nil
}

// rawStream posts one stream request to a shard server and counts the events
// and bytes of the reply.
func (l *ladder) rawStream(addr string, q *query) (events, wireBytes int64, err error) {
	body, err := json.Marshal(remote.StreamRequest{Query: q.text, Matrix: matrixName, Gap: gapPenalty, MinScore: q.minScore})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(l.ctx, http.MethodPost, "http://"+addr+remote.PathStream, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := l.h.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		events++
		wireBytes += int64(len(sc.Bytes())) + 1
	}
	return events, wireBytes, sc.Err()
}

// serveLayer is the live /search rung: a fresh one-shard in-memory server
// and the ladder's queries as top-10 first and full streams second (a stored
// top-10 stream cannot serve the full request that follows, so neither pass
// hits the result cache).
func (l *ladder) serveLayer() error {
	n, fn := len(l.qs), float64(len(l.qs))
	dir := filepath.Join(l.h.workDir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &deployment{}
	defer d.stop()
	p, err := d.start(l.ctx, l.h, dir, "serve", "-db", l.h.corpusPath)
	if err != nil {
		return err
	}
	l.put("serve.ready_ms", l.since(p.execAt), "ms", 1)
	healthz := make([]float64, 200)
	for i := range healthz {
		t := time.Now()
		if err := getJSON(l.ctx, l.h.client, "http://"+p.addr+"/healthz/live", &struct{}{}); err != nil {
			return err
		}
		healthz[i] = l.since(t)
	}
	l.put("serve.healthz_ms", median(healthz), "ms", len(healthz))
	var topHits, fullHits int64
	top, err := l.pass("POST /search/top10", "core.Search/top10", func(i int) error {
		r := search(l.ctx, l.h.client, p.addr, &l.qs[i], 10, time.Time{}, false)
		topHits += int64(r.hits)
		return r.err
	})
	if err != nil {
		return err
	}
	full, err := l.pass("POST /search", "engine.Search", func(i int) error {
		r := search(l.ctx, l.h.client, p.addr, &l.qs[i], 0, time.Time{}, false)
		fullHits += int64(r.hits)
		return r.err
	})
	if err != nil {
		return err
	}
	l.put("serve.overhead_ms", l.medianMs(full)-l.engineMs, "ms", n)
	// What a hit costs the server beyond finding it: the full-stream minus
	// top-10 latency over the wire, less the same difference in-process,
	// per extra hit streamed.
	extraMs := (l.medianMs(full) - l.medianMs(top)) - (l.coreMs - l.topkMs)
	l.put("serve.us_per_hit", 1e3*extraMs/(float64(max(1, fullHits-topHits))/fn), "us", n)
	return nil
}
