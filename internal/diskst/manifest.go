package diskst

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"repro/internal/seq"
)

// ManifestName is the file name of the sharded-index manifest within its
// directory.
const ManifestName = "manifest.json"

// ManifestVersion is the one manifest schema version this package writes and
// reads: 4, in which every index file — base shard or compacted delta — is
// one Part record placed in the global sequence numbering by its position
// alone.  Versions 1 and 2 can only name index files of format 2 or older,
// which Open refuses; version 3 mapped every sequence to its global index one
// by one.  Validate refuses all three, naming the rebuild.
const ManifestVersion = 4

// PartitionSequence is the one partition mode a manifest may name: independent
// per-shard indexes over disjoint sequence runs.  Older builds could also
// write "prefix" (one shared index file, disjoint top-level subtrees per
// shard); Validate refuses such a directory, naming the rebuild.
const PartitionSequence = "sequence"

// Manifest describes a sharded on-disk index: which files hold which parts of
// the corpus and the metadata a serving process needs to reassemble one
// logical index from them (see the package comment in format.go for the
// schema).  The corpus is the base shards followed by the deltas, in order:
// each file holds a contiguous run of global sequence indexes starting at the
// sum of the sequence counts of the files before it.
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Partition is PartitionSequence.
	Partition string `json:"partition"`
	// Alphabet is "protein" or "dna".
	Alphabet string `json:"alphabet"`
	// BlockSize is the block size every index file was written with.
	BlockSize int `json:"block_size"`
	// Shards are the base index files, one per work partition, in global
	// order.
	Shards []Part `json:"shards"`
	// Generation numbers this manifest within the directory's lifetime.
	// Every compaction writes a new manifest with a higher generation and
	// swaps it in atomically; readers pin the generation they opened.
	Generation uint64 `json:"generation,omitempty"`
	// Deltas lists compacted delta index files, in the order they were
	// compacted.  Each is an ordinary single-shard index file over the
	// sequences inserted since the previous compaction, numbered on after
	// the base shards and earlier deltas.
	Deltas []Part `json:"deltas,omitempty"`
	// Tombstones lists deleted global sequence indexes, covering base
	// and delta sequences alike.  Tombstoned sequences stay physically
	// present in their files; search filters them in the merger.
	Tombstones []int `json:"tombstones,omitempty"`
}

// Part is one index file of the directory and the counts the file must hold:
// a run of Sequences sequences with Residues residues in total (terminators
// excluded), checked against the file when it is opened.
type Part struct {
	// File is the index file name, relative to the manifest directory.
	File      string `json:"file"`
	Sequences int    `json:"sequences"`
	Residues  int64  `json:"residues"`
}

// validate checks one record; what names it in an error.
func (p Part) validate(what string) error {
	if p.File == "" || filepath.IsAbs(p.File) || p.File != filepath.Base(p.File) {
		return fmt.Errorf("diskst: manifest %s file %q must be a bare file name", what, p.File)
	}
	if p.Sequences < 1 || p.Residues < 0 {
		return fmt.Errorf("diskst: manifest %s %s holds %d sequences / %d residues", what, p.File, p.Sequences, p.Residues)
	}
	return nil
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("diskst: manifest version %d, this build reads only version %d: rebuild the index with oasis-build", m.Version, ManifestVersion)
	}
	if len(m.Shards) < 1 {
		return fmt.Errorf("diskst: manifest has no shards")
	}
	if m.Alphabet != "protein" && m.Alphabet != "dna" {
		return fmt.Errorf("diskst: unknown manifest alphabet %q", m.Alphabet)
	}
	switch m.Partition {
	case PartitionSequence:
	case "prefix":
		return fmt.Errorf("diskst: manifest partition %q, this build serves sequence-partitioned directories only: rebuild the index with oasis-build -shards %d", m.Partition, len(m.Shards))
	default:
		return fmt.Errorf("diskst: unknown manifest partition %q", m.Partition)
	}
	total := 0
	for _, p := range m.Shards {
		if err := p.validate("shard"); err != nil {
			return err
		}
		total += p.Sequences
	}
	for _, p := range m.Deltas {
		if err := p.validate("delta"); err != nil {
			return err
		}
		total += p.Sequences
	}
	for _, tomb := range m.Tombstones {
		if tomb < 0 || tomb >= total {
			return fmt.Errorf("diskst: tombstone %d outside the global sequence space [0,%d)", tomb, total)
		}
	}
	return nil
}

// files lists the index files the manifest names: the base shard files, then
// the deltas in append order.
func (m *Manifest) files() []string {
	var files []string
	for _, p := range slices.Concat(m.Shards, m.Deltas) {
		files = append(files, p.File)
	}
	return files
}

// stageManifest validates the manifest and writes it, fsynced, to the
// temporary name beside dir's manifest; renaming that over ManifestName is
// what swaps it in.
func stageManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, ManifestName+tmpSuffix), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeManifest writes the manifest into dir atomically and durably —
// write-temp + fsync + rename + directory fsync — so a crash at any point
// leaves either the old manifest or the new one, never a torn file.  The
// directory fsync also makes durable every file created in dir before the
// call, which is what BuildSharded relies on.
func writeManifest(dir string, m *Manifest) error {
	err := stageManifest(dir, m)
	if err == nil {
		err = install(dir, ManifestName)
	}
	if err != nil {
		os.Remove(filepath.Join(dir, ManifestName+tmpSuffix))
	}
	return err
}

// ReadManifest reads and validates the manifest in dir.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		// An older schema need not parse as this one; what to do about it is
		// what Validate says of its version.
		var old struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &old) == nil && old.Version != ManifestVersion {
			return nil, (&Manifest{Version: old.Version}).Validate()
		}
		return nil, fmt.Errorf("diskst: parsing %s: %w", ManifestName, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardedBuildOptions controls sharded index construction.
type ShardedBuildOptions struct {
	// BlockSize is the disk block size of every shard file (default 2048).
	BlockSize int
	// Shards is the number of work partitions (>= 1).
	Shards int
}

// BuildSharded cuts db into contiguous sequence runs, writes one index file
// per run and the manifest into dir (created if needed), and returns the
// manifest along with one BuildStats per written file: shard-0.oasis ..
// shard-(N-1).oasis, each an ordinary single-shard index over its run.  The
// shards build concurrently, at most GOMAXPROCS at a time; when several fail,
// the lowest-numbered shard's error is returned.
func BuildSharded(dir string, db *seq.Database, opts ShardedBuildOptions) (*Manifest, []BuildStats, error) {
	if db == nil {
		return nil, nil, fmt.Errorf("diskst: nil database")
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	blockSize := opts.BlockSize
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	alphabet := "protein"
	if db.Alphabet().Kind() == seq.KindDNA {
		alphabet = "dna"
	}
	runs, err := seq.PartitionDatabase(db, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		Version:   ManifestVersion,
		Partition: PartitionSequence,
		Alphabet:  alphabet,
		BlockSize: blockSize,
	}
	stats := make([]BuildStats, len(runs))
	errs := make([]error, len(runs))
	free := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for s, run := range runs {
		name := fmt.Sprintf("shard-%d.oasis", s)
		m.Shards = append(m.Shards, Part{File: name, Sequences: run.NumSequences(), Residues: run.TotalResidues()})
		free <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-free; wg.Done() }()
			st, err := Build(filepath.Join(dir, name), run, BuildOptions{BlockSize: blockSize})
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
				return
			}
			stats[s] = *st
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}
