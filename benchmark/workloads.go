package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/seq"
)

// workload is one of the four live-server traffic mixes.  The names are
// fixed: BENCHMARK.json and later issues refer to them.
type workload struct {
	name string
	// top is the top-k every search asks for (0 = the full hit stream).
	top int
	// loadRate is the frozen open-loop arrival rate in operations per second:
	// about 30% of the capacity phase's result on a quiet build machine (half
	// of it there is three quarters of it in a noisy minute, where queueing
	// swamps the measurement), measured once and
	// written here as a literal.  It is never computed at run time, so a
	// slower system faces the same offered load.  The ingest workload's rate
	// is its writer's: far below insert capacity, high enough for a p95.
	loadRate float64
	// ingest marks the one workload with a write path (phases mixed + bulk
	// in place of solo + sat + load).
	ingest bool
	// deploy builds indexes and starts the servers under dir.
	deploy func(ctx context.Context, h *harness, dir string) (*deployment, error)
}

// Phase shares of the measured seconds.
const (
	soloShare  = 0.40
	satShare   = 0.20
	loadShare  = 0.40
	mixedShare = 0.75
	bulkShare  = 0.25
)

var workloads = []workload{
	{name: "mem-scan", top: 0, loadRate: 35, deploy: deployMemScan},
	{name: "disk-topk", top: 10, loadRate: 24, deploy: deployDiskTopK},
	{name: "ingest-mixed", top: 10, loadRate: 20, ingest: true, deploy: deployIngestMixed},
	{name: "coord-fanout", top: 0, loadRate: 14, deploy: deployCoordFanout},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// deployment is one workload's running servers.
type deployment struct {
	// front answers /search (and /insert); procs lists every server process
	// in start order, front last.
	front *proc
	procs []*proc
	// indexDirs are the index directories the servers read and write.
	indexDirs []string
}

// stop shuts the servers down front first and returns their summed peak RSS.
func (d *deployment) stop() (rssMB float64, err error) {
	for i := len(d.procs) - 1; i >= 0; i-- {
		mb, serr := d.procs[i].stop()
		rssMB += mb
		if serr != nil && err == nil {
			err = serr
		}
	}
	return rssMB, err
}

// indexBytes sums the regular files under the index directories.
func (d *deployment) indexBytes() (int64, error) {
	var total int64
	for _, dir := range d.indexDirs {
		err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// start launches one oasis-serve, registers it with the deployment and waits
// until it is ready.
func (d *deployment) start(ctx context.Context, h *harness, dir, name string, args ...string) (*proc, error) {
	p, err := startServe(ctx, h.serveBin, name, filepath.Join(dir, name+".log"), args...)
	if err != nil {
		return nil, err
	}
	d.procs = append(d.procs, p)
	h.procs = append(h.procs, p)
	d.front = p
	return p, p.waitReady(ctx, h.client)
}

// mem-scan: one in-memory shard, full streams.  core and serve's per-hit
// NDJSON encode do nearly all the work; no disk, pool, wire hop or writes.
func deployMemScan(ctx context.Context, h *harness, dir string) (*deployment, error) {
	d := &deployment{}
	_, err := d.start(ctx, h, dir, "serve", "-db", h.corpusPath)
	return d, err
}

// disk-topk: two disk shards through 1 MB pools each (the shard files are
// ~2.1 MB, so the working set is larger than the program's own cache),
// top-10 answers.
func deployDiskTopK(ctx context.Context, h *harness, dir string) (*deployment, error) {
	idx := filepath.Join(dir, "corpus.idx")
	d := &deployment{indexDirs: []string{idx}}
	if err := runTool(ctx, h.buildBin, "-in", h.corpusPath, "-shards", "2", "-out", idx); err != nil {
		return d, err
	}
	_, err := d.start(ctx, h, dir, "serve", "-index-dir", idx, "-pool", "1")
	return d, err
}

// ingest-mixed: one disk shard under the default 64 MB pool (the index fits:
// warm hit path only) with background compaction every 50 inserts.
func deployIngestMixed(ctx context.Context, h *harness, dir string) (*deployment, error) {
	idx := filepath.Join(dir, "corpus.idx")
	d := &deployment{indexDirs: []string{idx}}
	if err := runTool(ctx, h.buildBin, "-in", h.corpusPath, "-shards", "1", "-out", idx); err != nil {
		return d, err
	}
	_, err := d.start(ctx, h, dir, "serve", "-index-dir", idx, "-compact-after", "50")
	return d, err
}

// coord-fanout: the corpus in two sequence-disjoint halves, one shard server
// per half (one replica each, so hedging and failover cannot fire) behind a
// coordinator; full streams cross the wire twice.
func deployCoordFanout(ctx context.Context, h *harness, dir string) (*deployment, error) {
	d := &deployment{}
	var slices string
	for i, half := range h.halfPaths {
		idx := filepath.Join(dir, fmt.Sprintf("slice%d.idx", i))
		d.indexDirs = append(d.indexDirs, idx)
		if err := runTool(ctx, h.buildBin, "-in", half, "-shards", "1", "-out", idx); err != nil {
			return d, err
		}
	}
	for i, idx := range d.indexDirs {
		p, err := d.start(ctx, h, dir, fmt.Sprintf("shard%d", i), "-shard-server", "-index-dir", idx)
		if err != nil {
			return d, err
		}
		if i > 0 {
			slices += ","
		}
		slices += p.addr
	}
	_, err := d.start(ctx, h, dir, "coordinator", "-coordinator", "-slices", slices)
	return d, err
}

// writeCorpus writes the FASTA files the servers and oasis-build read: the
// whole base corpus and its two contiguous halves.  This is input
// generation, not set-up, and is not timed.
func (h *harness) writeCorpus() error {
	h.corpusPath = filepath.Join(h.workDir, "corpus.fasta")
	if err := seq.WriteFASTAFile(h.corpusPath, h.in.base, 60); err != nil {
		return err
	}
	seqs := h.in.base.Sequences()
	mid := len(seqs) / 2
	for i, part := range [][]seq.Sequence{seqs[:mid], seqs[mid:]} {
		db, err := seq.NewDatabase(seq.Protein, part)
		if err != nil {
			return err
		}
		path := filepath.Join(h.workDir, fmt.Sprintf("half%d.fasta", i))
		if err := seq.WriteFASTAFile(path, db, 60); err != nil {
			return err
		}
		h.halfPaths = append(h.halfPaths, path)
	}
	return nil
}
