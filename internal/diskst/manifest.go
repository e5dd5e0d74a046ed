package diskst

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// ManifestName is the file name of the sharded-index manifest within its
// directory.
const ManifestName = "manifest.json"

// ManifestVersion is the current manifest schema version: 3 adds the mutable
// layer's bookkeeping — a generation number, compacted delta index files and
// per-sequence tombstones.  Version 2 added per-block checksums.  Version 1
// and 2 manifests still open (their new fields read as zero/absent).
const ManifestVersion = 3

// Partition-mode names used in the manifest (string-typed so the manifest
// stays self-describing without importing the shard package).
const (
	PartitionSequence = "sequence"
	PartitionPrefix   = "prefix"
)

// Manifest describes a sharded on-disk index: which files hold which shards,
// how the logical database was partitioned, and the metadata a serving
// process needs to reassemble one logical index from the parts (see the
// package comment in format.go for the schema).
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Partition is "sequence" (independent per-shard indexes over disjoint
	// sequence subsets) or "prefix" (one shared index file, disjoint
	// top-level subtrees per shard).
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
	// ShardFiles are the index file names, relative to the manifest's
	// directory: one per shard in sequence mode, exactly one shared file in
	// prefix mode (every shard opens it through its own buffer pool).
	ShardFiles []string `json:"shard_files"`
	// GlobalIndex (sequence mode) maps shard-local sequence indexes back to
	// global ones: GlobalIndex[s][i] is the global index of shard s's i-th
	// sequence.
	GlobalIndex [][]int `json:"global_index,omitempty"`
	// PrefixAssignment (prefix mode) is the suffix-prefix -> shard owner
	// tables computed at build time.
	PrefixAssignment *seq.PrefixAssignment `json:"prefix_assignment,omitempty"`
	// Checksums records that every shard file carries a per-block CRC32C
	// table (absent from v1 manifests; every file that opens has one).
	Checksums bool `json:"checksums,omitempty"`
	// Generation numbers this manifest within the directory's lifetime (v3).
	// Every compaction writes a new manifest with a higher generation and
	// swaps it in atomically; readers pin the generation they opened.
	Generation uint64 `json:"generation,omitempty"`
	// Deltas lists compacted delta index files (v3), in the order they were
	// compacted.  Each is an ordinary single-shard index file over the
	// sequences inserted since the previous compaction; its global sequence
	// indexes continue AFTER the base corpus and earlier deltas.
	// NumSequences/TotalResidues above keep describing the BASE files only,
	// so the open-time cross-check against the base shard files stays exact.
	Deltas []DeltaRecord `json:"deltas,omitempty"`
	// Tombstones lists deleted global sequence indexes (v3), covering base
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
	if m.Version < 1 || m.Version > ManifestVersion {
		return fmt.Errorf("diskst: unsupported manifest version %d", m.Version)
	}
	if m.Shards < 1 {
		return fmt.Errorf("diskst: manifest has %d shards", m.Shards)
	}
	if m.Alphabet != "protein" && m.Alphabet != "dna" {
		return fmt.Errorf("diskst: unknown manifest alphabet %q", m.Alphabet)
	}
	switch m.Partition {
	case PartitionSequence:
		if len(m.ShardFiles) != m.Shards {
			return fmt.Errorf("diskst: manifest lists %d shard files for %d shards", len(m.ShardFiles), m.Shards)
		}
		if len(m.GlobalIndex) != m.Shards {
			return fmt.Errorf("diskst: manifest has %d global maps for %d shards", len(m.GlobalIndex), m.Shards)
		}
	case PartitionPrefix:
		if len(m.ShardFiles) != 1 {
			return fmt.Errorf("diskst: prefix manifest lists %d shard files, want 1 shared file", len(m.ShardFiles))
		}
		if m.PrefixAssignment == nil {
			return fmt.Errorf("diskst: prefix manifest has no prefix assignment")
		}
		if m.PrefixAssignment.Shards != m.Shards {
			return fmt.Errorf("diskst: prefix assignment covers %d shards, manifest says %d",
				m.PrefixAssignment.Shards, m.Shards)
		}
	default:
		return fmt.Errorf("diskst: unknown manifest partition %q", m.Partition)
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

// WriteManifest validates and writes the manifest into dir atomically:
// write-temp + fsync + rename, so a crash at any point leaves either the old
// manifest or the new one, never a torn file.  The previous generation's
// delta files are still referenced by the old manifest until the rename
// lands, which is what makes compaction crash-safe.
func WriteManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
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
	// PartitionByPrefix selects prefix-partitioned subtree sharding: ONE
	// shared index file plus a suffix-prefix -> shard assignment, instead of
	// one independently indexed file per sequence subset.
	PartitionByPrefix bool
}

// BuildSharded partitions db, writes the per-shard index files and the
// manifest into dir (created if needed), and returns the manifest along with
// one BuildStats per written file.
//
// Sequence mode writes shard-0.oasis .. shard-(N-1).oasis, each an ordinary
// single-shard index over its disjoint sequence subset, and records the
// local -> global sequence maps.  Prefix mode builds ONE suffix tree over
// the whole database, writes it as shard-0.oasis, and records the prefix
// assignment; at open time every shard reads that shared file through its
// own buffer pool.
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
	m := &Manifest{
		Version:       ManifestVersion,
		Checksums:     true,
		Alphabet:      alphabet,
		BlockSize:     blockSize,
		NumSequences:  db.NumSequences(),
		TotalResidues: db.TotalResidues(),
	}
	var stats []BuildStats
	if opts.PartitionByPrefix {
		prefixes, err := seq.PartitionByPrefix(db, opts.Shards)
		if err != nil {
			return nil, nil, err
		}
		tree, err := suffixtree.BuildUkkonen(db)
		if err != nil {
			return nil, nil, err
		}
		st, err := Write(filepath.Join(dir, "shard-0.oasis"), tree, BuildOptions{BlockSize: blockSize})
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, *st)
		assign := prefixes.Assignment()
		m.Partition = PartitionPrefix
		m.Shards = prefixes.NumShards()
		m.ShardFiles = []string{"shard-0.oasis"}
		m.PrefixAssignment = &assign
	} else {
		part, err := seq.PartitionDatabase(db, opts.Shards)
		if err != nil {
			return nil, nil, err
		}
		m.Partition = PartitionSequence
		m.Shards = part.NumShards()
		m.GlobalIndex = part.GlobalIndex
		for s, shardDB := range part.Shards {
			name := fmt.Sprintf("shard-%d.oasis", s)
			st, err := Build(filepath.Join(dir, name), shardDB, BuildOptions{BlockSize: blockSize})
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d: %w", s, err)
			}
			stats = append(stats, *st)
			m.ShardFiles = append(m.ShardFiles, name)
		}
	}
	if err := WriteManifest(dir, m); err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// OpenOptions controls how a sharded index directory is opened.
type OpenOptions struct {
	// PoolBytesPerShard is each shard's buffer-pool capacity in bytes
	// (default 64 MB).  Separate pools mean shard searches never thrash each
	// other's cache and page I/O parallelises across shards.
	PoolBytesPerShard int64
	// AllowDegraded opens a sequence-partitioned directory even when some
	// shard files fail to open (corrupt, truncated, missing): the failed
	// shards are quarantined (nil Indexes entries, detail in Quarantined)
	// and searches complete from the survivors with Degraded set.  Opening
	// still fails when every shard is unusable, or in prefix mode (all
	// shards share one file, so there are no survivors).
	AllowDegraded bool
}

// DefaultPoolBytesPerShard is the per-shard buffer-pool capacity used when
// OpenOptions does not set one.
const DefaultPoolBytesPerShard = 64 << 20

// Sharded is a sharded on-disk index opened for searching: one Index (and
// one buffer pool) per shard, plus the partition metadata from the manifest.
// In prefix mode all shard handles read the same file, each through its own
// pool, and Frontier is one more handle reserved for the shared near-root
// expansion.
type Sharded struct {
	// Dir is the index directory and Manifest its parsed manifest.
	Dir      string
	Manifest *Manifest
	// Indexes[s] is shard s's read handle (Index.Pool is its buffer pool).
	Indexes []*Index
	// Frontier (prefix mode with more than one shard) serves the shared
	// near-root expansion so shard pools only ever see their own subtree
	// traffic; nil otherwise (a single shard never expands a shared
	// frontier).
	Frontier *Index
	// Prefixes is the rebuilt prefix assignment (prefix mode only).
	Prefixes *seq.PrefixPartition
	// Quarantined lists shards whose files failed to open under
	// OpenOptions.AllowDegraded; their Indexes entries are nil and
	// every search over this directory is degraded from the start.
	Quarantined []core.ShardError
}

// OpenFile opens one index file named by the manifest (a base shard file or
// a compacted delta) relative to dir, through a fresh buffer pool of up to
// poolBytes (0 selects DefaultPoolBytesPerShard; small files get
// proportionally small pools), cross-checking the file's alphabet and block
// size against the manifest.
func (m *Manifest) OpenFile(dir, name string, poolBytes int64) (*Index, error) {
	if poolBytes <= 0 {
		poolBytes = DefaultPoolBytesPerShard
	}
	// The buffer pool's frames are allocated eagerly, so cap each pool
	// at what its file could ever fill — a small index must not pin
	// poolBytes of frames per file.
	bytes := poolBytes
	if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() < bytes {
		bytes = alignUp(fi.Size(), int64(m.BlockSize))
	}
	pool := bufferpool.New(bytes, m.BlockSize)
	idx, err := Open(filepath.Join(dir, name), pool)
	if err != nil {
		return nil, err
	}
	// Cross-check the file against the manifest that named it: a file
	// built over a different alphabet or block size would silently
	// return wrong results if it were searched.
	wantAlphabet := seq.Protein
	if m.Alphabet == "dna" {
		wantAlphabet = seq.DNA
	}
	if idx.Catalog().Alphabet() != wantAlphabet {
		idx.Close()
		return nil, fmt.Errorf("file alphabet %s, manifest says %s",
			idx.Catalog().Alphabet().Name(), m.Alphabet)
	}
	if idx.BlockSize() != m.BlockSize {
		idx.Close()
		return nil, fmt.Errorf("file block size %d, manifest says %d", idx.BlockSize(), m.BlockSize)
	}
	return idx, nil
}

// OpenSharded opens every shard of the index directory written by
// BuildSharded, one buffer pool per shard.
func OpenSharded(dir string, opts OpenOptions) (*Sharded, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Sharded{Dir: dir, Manifest: m}
	fail := func(err error) (*Sharded, error) {
		s.Close()
		return nil, err
	}
	for i := 0; i < m.Shards; i++ {
		// Prefix mode has one shared file; sequence mode one per shard.
		name := m.ShardFiles[0]
		if m.Partition == PartitionSequence {
			name = m.ShardFiles[i]
		}
		idx, err := m.OpenFile(dir, name, opts.PoolBytesPerShard)
		if err != nil {
			err = fmt.Errorf("diskst: opening shard %d (%s): %w", i, name, err)
			// In sequence mode each shard's file is independent, so a bad
			// shard can be quarantined and the rest served; in prefix mode
			// every shard reads the one shared file — no survivors.
			if opts.AllowDegraded && m.Partition == PartitionSequence && m.Shards > 1 {
				s.Indexes = append(s.Indexes, nil)
				s.Quarantined = append(s.Quarantined, core.ShardError{Shard: i, Err: err.Error()})
				continue
			}
			return fail(err)
		}
		s.Indexes = append(s.Indexes, idx)
	}
	if len(s.Quarantined) == m.Shards {
		return fail(fmt.Errorf("diskst: every shard of %s failed to open; first: %s", dir, s.Quarantined[0].Err))
	}
	if m.Partition == PartitionPrefix {
		s.Prefixes, err = seq.PrefixPartitionFromAssignment(*m.PrefixAssignment)
		if err != nil {
			return fail(err)
		}
		// A single-shard engine routes through the single-index fast path
		// and never expands a shared frontier, so the extra view (and its
		// pool frames) would be dead weight.
		if m.Shards > 1 {
			if s.Frontier, err = m.OpenFile(dir, m.ShardFiles[0], opts.PoolBytesPerShard); err != nil {
				return fail(fmt.Errorf("diskst: opening frontier view: %w", err))
			}
		}
	}
	// Cross-check the manifest's totals against the shard files it names
	// (meaningless when shards are quarantined: survivors cover less).
	if len(s.Quarantined) == 0 {
		var total int64
		numSeqs := 0
		for _, idx := range s.Indexes {
			if m.Partition == PartitionPrefix {
				total = idx.Catalog().TotalResidues()
				numSeqs = idx.Catalog().NumSequences()
				break
			}
			total += idx.Catalog().TotalResidues()
			numSeqs += idx.Catalog().NumSequences()
		}
		if total != m.TotalResidues || numSeqs != m.NumSequences {
			return fail(fmt.Errorf("diskst: shard files hold %d sequences / %d residues, manifest says %d / %d",
				numSeqs, total, m.NumSequences, m.TotalResidues))
		}
	}
	return s, nil
}

// Close releases every shard's file handle.
func (s *Sharded) Close() error {
	var first error
	for _, idx := range s.Indexes {
		if idx == nil {
			continue
		}
		if err := idx.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.Frontier != nil {
		if err := s.Frontier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PoolStats is one index's buffer-pool counters summed over its three
// regions (symbols, internal nodes, leaves), under the number the caller
// knows the index by and its file name.
type PoolStats struct {
	Shard    int     `json:"shard"`
	File     string  `json:"file"`
	Requests int64   `json:"requests"`
	Hits     int64   `json:"hits"`
	HitRatio float64 `json:"hit_ratio"`
}

// PoolStats snapshots the index's buffer-pool counters.
func (x *Index) PoolStats(shard int) PoolStats {
	st := PoolStats{Shard: shard, File: filepath.Base(x.path)}
	for _, f := range []bufferpool.FileID{x.symbolsFile, x.internalFile, x.leavesFile} {
		fs := x.pool.Stats(f)
		st.Requests += fs.Requests
		st.Hits += fs.Hits
	}
	st.HitRatio = bufferpool.FileStats{Requests: st.Requests, Hits: st.Hits}.HitRatio()
	return st
}
