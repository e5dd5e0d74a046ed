// Package diskst implements the disk-based suffix-tree representation of
// paper Section 3.4 and the machinery to build it, write it, and search it
// through a buffer pool.
//
// # Single-file layout (format version 3)
//
// The index file contains four regions, each aligned to the block size:
//
//	symbols   — the encoded concatenated database (1 byte per symbol, a
//	            Terminator byte after each sequence)
//	internal  — fixed 16-byte internal-node records in level (BFS) order,
//	            plus one sentinel record, so the children of consecutive
//	            nodes are consecutive records
//	leaves    — fixed 4-byte suffix start positions, grouped by parent in the
//	            parents' BFS order
//	catalog   — sequence identifiers and lengths
//
// Byte layout (every region starts on a BlockSize boundary; offsets and
// lengths are recorded in the header):
//
//	offset 0                                         1 block
//	┌─────────────────────────────────────────────────────┐
//	│ header (128 bytes used, rest of the block zero)     │
//	│  0  magic "OASISIDX"        8  version    u32 (= 3) │
//	│ 12  blockSize   u32        16  alphabet   u32 (0=aa,│
//	│ 24  numSeqs     u64        32  concatLen  u64  1=nt)│
//	│ 40  numInternal u64        48  symbolsOff u64       │
//	│ 56  internalOff u64        64  leavesOff  u64       │
//	│ 72  catalogOff  u64        80  catalogLen u64       │
//	│ 88  checksumOff u64                                 │
//	├─────────────────────────────────────────────────────┤
//	│ symbols: concatLen bytes, one symbol code per byte, │
//	│          terminator after each sequence             │
//	├─────────────────────────────────────────────────────┤
//	│ internal: (numInternal + 1) × 16-byte records, node │
//	│   i at record i in BFS order (the root is 0)        │
//	│   0 depth u32        4 edgeStart u32                │
//	│   8 firstChild u32  12 leafStart u32                │
//	│   record numInternal is the sentinel                │
//	│   (0, 0, numInternal, concatLen)                    │
//	├─────────────────────────────────────────────────────┤
//	│ leaves: concatLen × u32 suffix start positions; the │
//	│   leaf children of node i are entries               │
//	│   [leafStart[i], leafStart[i+1]), ascending         │
//	├─────────────────────────────────────────────────────┤
//	│ catalog: u32 count, then per sequence               │
//	│          u32 idLen, id bytes, u64 length            │
//	├─────────────────────────────────────────────────────┤
//	│ checksums: one u32 CRC32C (Castagnoli) per          │
//	│   blockSize-byte block of [0, checksumOff), in      │
//	│   block order, followed by one u32 CRC32C of the    │
//	│   table bytes themselves                            │
//	└─────────────────────────────────────────────────────┘
//
// # Children as runs (CSR)
//
// Level order makes the children of consecutive nodes consecutive, so a node
// needs no child count, no sibling pointer and no end-of-family flag: node
// i's internal children are records [firstChild[i], firstChild[i+1]) and its
// leaf children are leaves-region entries [leafStart[i], leafStart[i+1]) —
// both ends come from the ADJACENT record, which is why the region ends with
// a sentinel.  Children of a node are enumerated as: one read of the record
// pair (i, i+1), one sequential copy of the leaf run, one of the child
// records; then the leaf children ascending by position, then the internal
// children in sibling order.  The same property holds a level at a time for
// whole subtrees: the descendants of a node at each level are one run of
// records [lo, hi), their leaf children one run of the leaves region
// [leafStart[lo], leafStart[hi]), and the next level is
// [firstChild[lo], firstChild[hi]) — so LeafPositions is two record reads and
// one sequential scan per level, with no recursion.
//
// Where this departs from the paper (§3.4): there the leaf array is indexed
// by suffix position — the array index is the symbol offset — and each leaf
// holds an explicit pointer to its next sibling.  Here the array index is the
// leaf's rank in its parent's run and the entry is the suffix position, so
// siblings are adjacent and the sibling pointer is gone; a leaf still costs 4
// bytes and an internal node 16, and sibling internal nodes are still
// physically adjacent, as in the paper.  The paper also reads the symbols
// through its buffer pool; here they are resident (next section).
//
// Every traversal step moves strictly forward in the file.  On each record
// pair the reader checks
//
//	i < firstChild[i] ≤ firstChild[i+1] ≤ numInternal
//	leafStart[i] ≤ leafStart[i+1] ≤ concatLen
//
// (and, per level of LeafPositions, that the next level starts at or after
// the end of this one) and returns a *CorruptError otherwise, so a file whose
// checksums are valid but whose records are crafted cannot make a search
// loop, recurse or index out of range.  VerifyIndex proves the whole
// structure in one sequential pass (see verify.go).
//
// # Checksums
//
// The checksum region follows the catalog.  checksumOff (header byte 88) is
// block-aligned, so [0, checksumOff) is a whole number of blockSize-byte
// blocks; the region holds checksumOff/blockSize little-endian u32 CRC32C
// values — one per block, covering header, symbols, internal, leaves and
// catalog including their padding — then a final u32 CRC32C of the table
// itself (so table corruption is distinguishable from data corruption
// without a circular header dependency).  The writer stamps checksums from a
// read-back of the finished file; the reader verifies every block as it is
// read, i.e. on every buffer-pool fill, retrying transient read errors with
// capped exponential backoff first (see checksum.go).
//
// Files of format versions 1 (no checksum region) and 2 (leaves indexed by
// position and chained by sibling pointers) are refused at Open with an
// *OpenError naming the file and its version; rebuild them with oasis-build.
//
// # Reading through the pool
//
// Open reads the symbol region once, through the same verifying reader every
// pool fill uses — so a damaged symbol block fails the open, not a search —
// and keeps it resident: 1 byte per residue outside the pool, of the ~10.4 the
// file holds.  An edge label is a slice of it, as the memory index's labels
// are, so reading one makes no pool request.  Internal records and leaf runs
// are read through internal/bufferpool, whose hits take no lock: pin the page
// → re-validate it → read → unpin (see that package).  They are copied out of
// their pages — each page's pin dropped before the next is asked for — before
// the first callback, so a search holds no pin across any callback, nor
// between pool calls.  Because no goroutine requests a page while it holds a
// pin, a pool whose every frame is pinned can wait for one: whoever holds the
// pins is not waiting on the pool — a callback that itself walks the index
// included.
//
// # Sharded layout (manifest.json)
//
// BuildSharded writes a DIRECTORY holding one or more single-file indexes
// plus a manifest.json that describes how they compose into one logical
// database (see Manifest; OpenDir reverses it, giving every file its own
// buffer pool so shard parallelism also parallelises page I/O):
//
//	{
//	  "version": 4,               // the only version read (1 and 2 could
//	                              // only name index files Open refuses; 3
//	                              // mapped every sequence one by one)
//	  "partition": "sequence",       // the only mode; "prefix", written by
//	                                 // older builds, is refused with the
//	                                 // remedy (oasis-build -shards N)
//	  "alphabet": "protein" | "dna",
//	  "block_size": 2048,
//	  // one file per shard, each a contiguous run of global sequence
//	  // indexes, in global order; the counts are checked against the file
//	  "shards": [{"file": "shard-0.oasis", "sequences": 30, "residues": 7311}, ...],
//	  // the generation (all optional; absent on a freshly built index):
//	  "generation": 7,               // the number of the last Commit
//	  "deltas": [                    // compacted delta indexes, oldest first,
//	    {"file": "delta-000007.oasis", // numbered on after the shards and
//	     "sequences": 2,               // the earlier deltas
//	     "residues": 451}
//	  ],
//	  "tombstones": [3, 118]         // deleted global sequence indexes
//	}
//
// Every file, base shard or delta, is the same kind of record, and its place
// in the global numbering is its position: a file's first sequence has the
// global index that is the sum of the sequence counts of the files before it.
// The manifest's size therefore grows with the number of files and
// tombstones, never with the number of sequences.
//
// File names are bare names resolved relative to the manifest's directory,
// so an index directory can be moved or mounted anywhere.
//
// # Directory protocol
//
// A directory is always at one GENERATION: its manifest, the files the
// manifest names, and nothing else that matters.  The base shard files never
// change.  Inserted sequences live in the engine's memory until a compaction
// writes their suffix tree, the one searches read, as one more ordinary
// single-file index, "delta-<gen>.oasis", whose sequences continue the global
// numbering where the base and the earlier deltas left off (the record's
// position says so, which keeps merged result streams deterministic across
// restarts); deleted sequences stay in their files and are listed as
// tombstones, which search filters in the merge.
// One type owns all of it — Dir: OpenDir opens a generation, Commit writes
// the next, and no other package names a file in the directory.  There is no
// write-ahead log, so the contract is that of an LSM without one: a crash
// anywhere leaves the directory at some previously acknowledged generation,
// and an acknowledged Commit survives power loss.  Commit's order of steps is
// what holds it:
//
//  1. write the tree to delta-<gen>.oasis.tmp and fsync it ("build").  A
//     crash leaves a temporary file nothing names.
//  2. rename it into place, then fsync the directory: a rename is atomic but
//     not durable, and POSIX lets a power cut keep a later rename and lose an
//     earlier one, so the delta's name must be on disk before a manifest
//     refers to it.  A crash leaves a delta nothing names.
//  3. open it through its own pool — a file that does not read back is never
//     named.
//  4. write manifest.json.tmp and fsync it.
//  5. rename it over manifest.json — the commit point — and fsync the
//     directory again, after which the generation is acknowledged.
//
// A step that fails undoes the ones before it; a crash cannot, so every
// Commit first sweeps the directory of exactly what steps 1–4 of an earlier
// one can have left: "*.tmp" files and "delta-*.oasis" files the manifest
// does not name.  It removes nothing else — never a file the manifest names,
// never one it cannot classify.  Only the writer sweeps, and opening never
// changes a directory: a reader in another process cannot tell a crashed
// commit's files from those of one in flight.  A directory has one writing
// process; any number may read it beside the writer.
// BuildSharded ends the same way: the manifest is written last (steps 4–5),
// and its directory fsync makes the shard files' names durable with it.
package diskst

import (
	"encoding/binary"
	"fmt"
)

const (
	// Magic identifies an OASIS index file.
	Magic = "OASISIDX"
	// Version is the one format version this package writes and reads: 3, the
	// level-order CSR layout (see the package comment).
	Version = 3
	// DefaultBlockSize matches the paper's 2 KB disk blocks.
	DefaultBlockSize = 2048
	// internalRecordSize is the size of an internal-node record in bytes.
	internalRecordSize = 16
	// leafRecordSize is the size of a leaf record in bytes.
	leafRecordSize = 4
	// headerSize is the fixed on-disk header size (always occupies the
	// first block regardless of block size).
	headerSize = 128
)

// header is the decoded index-file header.
type header struct {
	version      uint32
	blockSize    uint32
	alphabetKind uint32 // 0 = protein, 1 = dna
	numSequences uint64
	concatLen    uint64
	numInternal  uint64
	symbolsOff   uint64
	internalOff  uint64
	leavesOff    uint64
	catalogOff   uint64
	catalogLen   uint64
	checksumOff  uint64
}

func (h *header) encode() []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], Magic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], h.version)
	le.PutUint32(buf[12:], h.blockSize)
	le.PutUint32(buf[16:], h.alphabetKind)
	le.PutUint64(buf[24:], h.numSequences)
	le.PutUint64(buf[32:], h.concatLen)
	le.PutUint64(buf[40:], h.numInternal)
	le.PutUint64(buf[48:], h.symbolsOff)
	le.PutUint64(buf[56:], h.internalOff)
	le.PutUint64(buf[64:], h.leavesOff)
	le.PutUint64(buf[72:], h.catalogOff)
	le.PutUint64(buf[80:], h.catalogLen)
	le.PutUint64(buf[88:], h.checksumOff)
	return buf
}

func decodeHeader(buf []byte) (*header, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("diskst: header too short (%d bytes)", len(buf))
	}
	if string(buf[0:8]) != Magic {
		return nil, fmt.Errorf("diskst: bad magic %q", buf[0:8])
	}
	le := binary.LittleEndian
	h := &header{
		version:      le.Uint32(buf[8:]),
		blockSize:    le.Uint32(buf[12:]),
		alphabetKind: le.Uint32(buf[16:]),
		numSequences: le.Uint64(buf[24:]),
		concatLen:    le.Uint64(buf[32:]),
		numInternal:  le.Uint64(buf[40:]),
		symbolsOff:   le.Uint64(buf[48:]),
		internalOff:  le.Uint64(buf[56:]),
		leavesOff:    le.Uint64(buf[64:]),
		catalogOff:   le.Uint64(buf[72:]),
		catalogLen:   le.Uint64(buf[80:]),
		checksumOff:  le.Uint64(buf[88:]),
	}
	if h.version != Version {
		return nil, fmt.Errorf("diskst: format version %d, this build reads only version %d: rebuild the index with oasis-build", h.version, Version)
	}
	if h.blockSize == 0 {
		return nil, fmt.Errorf("diskst: zero block size")
	}
	return h, nil
}

// internalRecord is the decoded form of an internal-node record: node i's
// internal children are records [firstChild, next record's firstChild), its
// leaf children leaves-region entries [leafStart, next record's leafStart).
type internalRecord struct {
	depth      uint32
	edgeStart  uint32
	firstChild uint32
	leafStart  uint32
}

func (r internalRecord) appendTo(buf []byte) []byte {
	for _, field := range [...]uint32{r.depth, r.edgeStart, r.firstChild, r.leafStart} {
		buf = binary.LittleEndian.AppendUint32(buf, field)
	}
	return buf
}

func decodeInternalRecord(buf []byte) internalRecord {
	le := binary.LittleEndian
	return internalRecord{
		depth:      le.Uint32(buf[0:]),
		edgeStart:  le.Uint32(buf[4:]),
		firstChild: le.Uint32(buf[8:]),
		leafStart:  le.Uint32(buf[12:]),
	}
}

// alignUp rounds n up to the next multiple of block.
func alignUp(n, block int64) int64 {
	if block <= 0 {
		return n
	}
	rem := n % block
	if rem == 0 {
		return n
	}
	return n + block - rem
}
