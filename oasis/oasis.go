// Package oasis is the public API of the OASIS reproduction: an online and
// accurate local-alignment search over biological sequence databases, driven
// by a (disk-resident or in-memory) generalized suffix tree, as described in
// Meek, Patel & Kasetty, "OASIS: An Online and Accurate Technique for
// Local-alignment Searches on Biological Sequences", VLDB 2003.
//
// Typical use:
//
//	db, _ := oasis.LoadFASTA("swissprot.fasta", oasis.Protein)
//	idx, _ := oasis.NewMemoryIndex(db)
//	scheme := oasis.Scheme{Matrix: oasis.MatrixByName("PAM30"), Gap: -10}
//	opts, _ := oasis.NewSearchOptions(scheme, db, query, oasis.WithEValue(20000))
//	err := oasis.Search(idx, query, opts, func(h oasis.Hit) bool {
//	    fmt.Println(h.SeqID, h.Score)  // hits arrive in decreasing score order
//	    return true                    // return false to stop early (online top-k)
//	})
//
// For long-running servers, NewEngine keeps the index and searcher scratch
// warm across queries (build once, serve many; see Engine.SubmitBatch); the
// hit streams of its shards and delta layers are merged online, so the
// decreasing-score property (and therefore early termination and top-k) is
// preserved:
//
//	eng, _ := oasis.NewEngine(db, oasis.EngineOptions{})
//	defer eng.Close()
//	hits, _ := eng.SearchAll(ctx, query, opts) // same hits, same order guarantee
//
// For indexes bigger than RAM the whole stack runs disk-backed, the paper's
// disk-resident suffix tree read through a buffer pool (only the symbols, 1
// byte per residue, and the catalog stay resident): BuildShardedDiskIndex
// writes an index directory — one index file per shard (Shards: 1 for the
// paper's single tree) plus a manifest — and OpenEngine serves it with one
// buffer pool per shard, so shard parallelism also parallelises page I/O and
// hit streams are identical to the in-memory engines.  The shard count is the
// directory's, chosen once when it is built:
//
//	oasis.BuildShardedDiskIndex("swissprot.idx", db, oasis.ShardedIndexBuildOptions{Shards: 8})
//	eng, _ := oasis.OpenEngine("swissprot.idx", oasis.EngineOptions{PoolBytes: 64 << 20})
//	defer eng.Close()
//
// The option structs of this package are the internal packages' own
// (EngineOptions is engine.Options, ShardedIndexBuildOptions is diskst's,
// CoordinatorOptions is remote.Config): each decision has one field, filled
// once.  SearchOptions is the one deliberate exception — it narrows
// core.Options to the fields a caller may set.
//
// See the Example functions for runnable versions of each flow.
//
// The package also exposes the two baselines of the paper's evaluation —
// exact Smith-Waterman search and a BLAST-style heuristic search — so that
// results and costs can be compared on the same data.
package oasis

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/blast"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// Re-exported sequence types.
type (
	// Alphabet maps residue characters to compact symbol codes.
	Alphabet = seq.Alphabet
	// Sequence is an identified, encoded biological sequence.
	Sequence = seq.Sequence
	// Database is an immutable collection of sequences over one alphabet.
	Database = seq.Database
)

// Built-in alphabets.
var (
	// Protein is the amino-acid alphabet.
	Protein = seq.Protein
	// DNA is the nucleotide alphabet.
	DNA = seq.DNA
)

// Re-exported scoring types.
type (
	// Matrix is a substitution matrix.
	Matrix = score.Matrix
	// Scheme bundles a matrix with a linear gap penalty.
	Scheme = score.Scheme
	// KarlinAltschul holds E-value statistics (paper Equations 2-3).
	KarlinAltschul = score.KarlinAltschul
)

// Re-exported search types.
type (
	// Hit is one reported database sequence with its optimal score.
	Hit = core.Hit
	// SearchStats counts the work done by an OASIS search.  Degraded and
	// ShardErrors record partial-failure completion: the query finished from
	// surviving shards after one or more shards were quarantined.
	SearchStats = core.Stats
	// ShardError describes one quarantined shard of a degraded search.
	ShardError = core.ShardError
	// Index is the suffix-tree view OASIS searches over.
	Index = core.Index
	// Catalog is the sequence-metadata view of an index or engine
	// (identifiers, lengths, residues for alignment recovery).
	Catalog = core.Catalog
	// MemoryIndex is the in-memory index implementation.
	MemoryIndex = core.MemoryIndex
	// Alignment is a full traceback of one local alignment.
	Alignment = align.Alignment
)

// MatrixByName returns a built-in substitution matrix ("BLOSUM62", "PAM30",
// "PAM70", "PAM250", "UNIT", "BLASTN"), or nil for unknown names.
func MatrixByName(name string) *Matrix { return score.ByName(name) }

// NewScheme validates and returns a scoring scheme (gap must be negative).
func NewScheme(m *Matrix, gap int) (Scheme, error) { return score.NewScheme(m, gap) }

// LoadFASTA reads a FASTA file into a database using the given alphabet.
func LoadFASTA(path string, a *Alphabet) (*Database, error) { return seq.ReadFASTAFile(path, a) }

// NewDatabase builds a database from already-encoded sequences.
func NewDatabase(a *Alphabet, seqs []Sequence) (*Database, error) { return seq.NewDatabase(a, seqs) }

// NewMemoryIndex builds an in-memory suffix-tree index (suffix-array
// construction) over the database.
func NewMemoryIndex(db *Database) (*MemoryIndex, error) { return core.BuildMemoryIndex(db) }

// IndexStats reports the size of one index file (the paper's
// space-utilisation table).
type IndexStats = diskst.BuildStats

// ShardedIndexBuildOptions configures disk-index construction: BlockSize, the
// disk block size in bytes (default 2048, the paper's value), and Shards, the
// number of contiguous sequence runs (>= 1), each written as its own index
// file.
type ShardedIndexBuildOptions = diskst.ShardedBuildOptions

// IndexManifest describes a sharded disk index directory: one record per
// index file — name, sequence and residue counts — in global sequence order.
type IndexManifest = diskst.Manifest

// BuildShardedDiskIndex partitions db by sequence and writes one index file
// per shard plus a manifest.json into dir, ready for OpenEngine /
// EngineOptions.IndexDir serving without rebuilding.
func BuildShardedDiskIndex(dir string, db *Database, opts ShardedIndexBuildOptions) (*IndexManifest, []IndexStats, error) {
	return diskst.BuildSharded(dir, db, opts)
}

// ReadIndexManifest reads and validates the manifest of a sharded disk index
// directory.
func ReadIndexManifest(dir string) (*IndexManifest, error) { return diskst.ReadManifest(dir) }

// VerifyReport summarises a deep scrub of an index directory: every
// checksummed block is re-read and compared against the stored CRC32C table,
// then the index is opened and its tree structure checked record by record.
// Problems is empty when the scrub passed.
type VerifyReport = diskst.VerifyReport

// VerifyIndexDir deep-scrubs every index file of an index directory
// (oasis-build -verify).
func VerifyIndexDir(dir string) (*VerifyReport, error) { return diskst.VerifyIndexDir(dir) }

// SearchOptions configures an OASIS search.
type SearchOptions struct {
	// Scheme is the substitution matrix and gap penalty.
	Scheme Scheme
	// MinScore is the minimum alignment score to report (>= 1).
	MinScore int
	// MaxResults stops after this many sequences (0 = all); combined with
	// the online score ordering this yields exact top-k search.
	MaxResults int
	// KA attaches E-values to hits when non-nil.
	KA *KarlinAltschul
	// Stats accumulates work counters when non-nil.
	Stats *SearchStats
	// StrictShards fails a sharded search outright when any shard fails,
	// instead of quarantining the shard and completing a Degraded stream
	// from the survivors (the default).
	StrictShards bool
}

// SearchOption mutates SearchOptions in NewSearchOptions.
type SearchOption func(*SearchOptions, searchContext) error

type searchContext struct {
	dbLen    int64
	queryLen int
}

// WithMinScore sets an explicit score threshold.
func WithMinScore(minScore int) SearchOption {
	return func(o *SearchOptions, _ searchContext) error {
		o.MinScore = minScore
		return nil
	}
}

// WithEValue converts an E-value threshold into the equivalent MinScore
// using Karlin-Altschul statistics (paper Equation 3) and attaches E-values
// to reported hits.  The statistics are solved once per matrix (score.Params
// memoises them), so the option costs a logarithm per query.
func WithEValue(eValue float64) SearchOption {
	return func(o *SearchOptions, ctx searchContext) error {
		ka, err := score.Params(o.Scheme.Matrix, nil)
		if err != nil {
			return err
		}
		o.KA = &ka
		o.MinScore = ka.MinScore(eValue, ctx.queryLen, ctx.dbLen)
		return nil
	}
}

// WithMaxResults limits the number of reported sequences (top-k).
func WithMaxResults(k int) SearchOption {
	return func(o *SearchOptions, _ searchContext) error {
		o.MaxResults = k
		return nil
	}
}

// WithStats attaches a stats collector.
func WithStats(st *SearchStats) SearchOption {
	return func(o *SearchOptions, _ searchContext) error {
		o.Stats = st
		return nil
	}
}

// WithStrictShards makes a sharded search fail outright when any shard
// fails, instead of completing a Degraded stream from the survivors.
func WithStrictShards() SearchOption {
	return func(o *SearchOptions, _ searchContext) error {
		o.StrictShards = true
		return nil
	}
}

// NewSearchOptions assembles search options for a query against a database
// (the database size is needed to convert E-values into score thresholds).
func NewSearchOptions(scheme Scheme, db *Database, query []byte, opts ...SearchOption) (SearchOptions, error) {
	var dbLen int64
	if db != nil {
		dbLen = db.TotalResidues()
	}
	return NewSearchOptionsSized(scheme, dbLen, query, opts...)
}

// NewSearchOptionsSized is NewSearchOptions for callers that know the
// database's total residue count but do not hold a Database — disk-backed
// engines serve indexes whose sequences never enter memory (use
// Engine.TotalResidues or Catalog.TotalResidues for the size).
func NewSearchOptionsSized(scheme Scheme, dbResidues int64, query []byte, opts ...SearchOption) (SearchOptions, error) {
	if err := scheme.Validate(); err != nil {
		return SearchOptions{}, err
	}
	o := SearchOptions{Scheme: scheme, MinScore: 1}
	ctx := searchContext{queryLen: len(query), dbLen: dbResidues}
	for _, opt := range opts {
		if err := opt(&o, ctx); err != nil {
			return SearchOptions{}, err
		}
	}
	return o, nil
}

// Search runs the OASIS algorithm and streams hits to report in decreasing
// score order; return false from report to stop early.
func Search(idx Index, query []byte, opts SearchOptions, report func(Hit) bool) error {
	return core.Search(idx, query, coreOptions(opts), report)
}

// SearchAll runs Search and collects every hit.
func SearchAll(idx Index, query []byte, opts SearchOptions) ([]Hit, error) {
	var hits []Hit
	err := Search(idx, query, opts, func(h Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}

// RecoverAlignment reconstructs the full alignment (coordinates, operations,
// identity) for a hit reported by Search.
func RecoverAlignment(idx Index, query []byte, scheme Scheme, h Hit) (Alignment, error) {
	return core.RecoverAlignment(idx, query, scheme, h)
}

// SmithWaterman runs the exact quadratic-time baseline over every sequence
// of the database and returns the best hit per sequence with score at least
// minScore, in decreasing score order.
func SmithWaterman(db *Database, query []byte, scheme Scheme, minScore int) ([]SmithWatermanHit, error) {
	return align.SearchDatabase(db, query, scheme, align.Options{MinScore: minScore})
}

// SmithWatermanHit is a hit reported by the exact baseline: the best local
// alignment of the query against one sequence.
type SmithWatermanHit = align.Hit

// BLASTOptions configures the heuristic baseline searcher.
type BLASTOptions = blast.Options

// BLASTHit is a hit reported by the heuristic baseline.
type BLASTHit = blast.Hit

// BLAST is the word-seeded heuristic searcher (baseline).
type BLAST = blast.Searcher

// NewBLAST builds the heuristic searcher's word index over the database.
func NewBLAST(db *Database, scheme Scheme, opts BLASTOptions) (*BLAST, error) {
	return blast.NewSearcher(db, scheme, opts)
}

// EValueStatistics computes Karlin-Altschul parameters for a matrix under
// the standard background frequencies.
func EValueStatistics(m *Matrix) (KarlinAltschul, error) { return score.Params(m, nil) }

// MinScoreForEValue converts an E-value threshold into the minimum raw
// alignment score for a query of length queryLen against a database of
// dbResidues total residues (paper Equation 3).
func MinScoreForEValue(m *Matrix, eValue float64, queryLen int, dbResidues int64) (int, error) {
	ka, err := score.Params(m, nil)
	if err != nil {
		return 0, err
	}
	if queryLen <= 0 || dbResidues <= 0 {
		return 0, fmt.Errorf("oasis: query length and database size must be positive")
	}
	return ka.MinScore(eValue, queryLen, dbResidues), nil
}
