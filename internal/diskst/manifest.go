package diskst

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/seq"
)

// ManifestName is the file name of the sharded-index manifest within its
// directory.
const ManifestName = "manifest.json"

// ManifestVersion is the one manifest schema version this package writes and
// reads: 3, which carries the mutable layer's bookkeeping — a generation
// number, compacted delta index files and per-sequence tombstones.  Versions 1
// and 2 can only name index files of format 2 or older, which Open refuses, so
// Validate refuses them too.
const ManifestVersion = 3

// PartitionSequence is the one partition mode a manifest may name: independent
// per-shard indexes over disjoint sequence subsets.  Older builds could also
// write "prefix" (one shared index file, disjoint top-level subtrees per
// shard); Validate refuses such a directory, naming the rebuild.
const PartitionSequence = "sequence"

// Manifest describes a sharded on-disk index: which files hold which shards,
// how the logical database was partitioned, and the metadata a serving
// process needs to reassemble one logical index from the parts (see the
// package comment in format.go for the schema).
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Partition is PartitionSequence.
	Partition string `json:"partition"`
	// Shards is the number of work partitions.
	Shards int `json:"shards"`
	// Alphabet is "protein" or "dna".
	Alphabet string `json:"alphabet"`
	// BlockSize is the block size every shard file was written with.
	BlockSize int `json:"block_size"`
	// NumSequences / TotalResidues describe the whole logical database.
	NumSequences  int   `json:"num_sequences"`
	TotalResidues int64 `json:"total_residues"`
	// ShardFiles are the index file names, one per shard, relative to the
	// manifest's directory.
	ShardFiles []string `json:"shard_files"`
	// GlobalIndex maps shard-local sequence indexes back to global ones:
	// GlobalIndex[s][i] is the global index of shard s's i-th sequence.
	GlobalIndex [][]int `json:"global_index,omitempty"`
	// Generation numbers this manifest within the directory's lifetime.
	// Every compaction writes a new manifest with a higher generation and
	// swaps it in atomically; readers pin the generation they opened.
	Generation uint64 `json:"generation,omitempty"`
	// Deltas lists compacted delta index files, in the order they were
	// compacted.  Each is an ordinary single-shard index file over the
	// sequences inserted since the previous compaction; its global sequence
	// indexes continue AFTER the base corpus and earlier deltas.
	// NumSequences/TotalResidues above keep describing the BASE files only,
	// so the open-time cross-check against the base shard files stays exact.
	Deltas []DeltaRecord `json:"deltas,omitempty"`
	// Tombstones lists deleted global sequence indexes, covering base
	// and delta sequences alike.  Tombstoned sequences stay physically
	// present in their files; search filters them in the merger.
	Tombstones []int `json:"tombstones,omitempty"`
}

// DeltaRecord names one compacted delta index file within the manifest's
// directory and maps its local sequence indexes into the global space.
type DeltaRecord struct {
	// File is the delta index file name, relative to the manifest directory.
	File string `json:"file"`
	// GlobalIndex[i] is the global sequence index of the file's i-th
	// sequence.
	GlobalIndex []int `json:"global_index"`
	// Residues is the file's residue total (excluding terminators), so live
	// corpus totals can be derived without opening every delta.
	Residues int64 `json:"residues"`
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("diskst: manifest version %d, this build reads only version %d: rebuild the index with oasis-build", m.Version, ManifestVersion)
	}
	if m.Shards < 1 {
		return fmt.Errorf("diskst: manifest has %d shards", m.Shards)
	}
	if m.Alphabet != "protein" && m.Alphabet != "dna" {
		return fmt.Errorf("diskst: unknown manifest alphabet %q", m.Alphabet)
	}
	switch m.Partition {
	case PartitionSequence:
	case "prefix":
		return fmt.Errorf("diskst: manifest partition %q, this build serves sequence-partitioned directories only: rebuild the index with oasis-build -shards %d", m.Partition, m.Shards)
	default:
		return fmt.Errorf("diskst: unknown manifest partition %q", m.Partition)
	}
	if len(m.ShardFiles) != m.Shards {
		return fmt.Errorf("diskst: manifest lists %d shard files for %d shards", len(m.ShardFiles), m.Shards)
	}
	if len(m.GlobalIndex) != m.Shards {
		return fmt.Errorf("diskst: manifest has %d global maps for %d shards", len(m.GlobalIndex), m.Shards)
	}
	for _, f := range m.ShardFiles {
		if f == "" || filepath.IsAbs(f) || f != filepath.Base(f) {
			return fmt.Errorf("diskst: manifest shard file %q must be a bare file name", f)
		}
	}
	total := m.NumSequences
	for i, d := range m.Deltas {
		if d.File == "" || filepath.IsAbs(d.File) || d.File != filepath.Base(d.File) {
			return fmt.Errorf("diskst: manifest delta file %q must be a bare file name", d.File)
		}
		if len(d.GlobalIndex) == 0 {
			return fmt.Errorf("diskst: delta %d (%s) has an empty global index", i, d.File)
		}
		for _, g := range d.GlobalIndex {
			if g != total {
				return fmt.Errorf("diskst: delta %d (%s) global index %d breaks the dense append order (want %d)",
					i, d.File, g, total)
			}
			total++
		}
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
	files := slices.Clone(m.ShardFiles)
	for _, d := range m.Deltas {
		files = append(files, d.File)
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

// BuildSharded partitions db by sequence, writes the per-shard index files and
// the manifest into dir (created if needed), and returns the manifest along
// with one BuildStats per written file: shard-0.oasis .. shard-(N-1).oasis,
// each an ordinary single-shard index over its disjoint sequence subset, and
// the local -> global sequence maps.
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
	part, err := seq.PartitionDatabase(db, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		Version:       ManifestVersion,
		Partition:     PartitionSequence,
		Shards:        part.NumShards(),
		Alphabet:      alphabet,
		BlockSize:     blockSize,
		NumSequences:  db.NumSequences(),
		TotalResidues: db.TotalResidues(),
		GlobalIndex:   part.GlobalIndex,
	}
	var stats []BuildStats
	for s, shardDB := range part.Shards {
		name := fmt.Sprintf("shard-%d.oasis", s)
		st, err := Build(filepath.Join(dir, name), shardDB, BuildOptions{BlockSize: blockSize})
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		stats = append(stats, *st)
		m.ShardFiles = append(m.ShardFiles, name)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}
