// Package diskst implements the disk-based suffix-tree representation of
// paper Section 3.4 and the machinery to build it, write it, and search it
// through a buffer pool.
//
// # Single-file layout
//
// The index file contains four regions, each aligned to the block size:
//
//	symbols   — the encoded concatenated database (1 byte per symbol, a
//	            Terminator byte after each sequence)
//	internal  — fixed 16-byte internal-node records in level (BFS) order so
//	            sibling internal nodes are physically adjacent
//	leaves    — fixed 4-byte leaf records indexed by suffix start position
//	            (the array index IS the symbol-array offset, as in the paper)
//	catalog   — sequence identifiers and lengths
//
// Byte layout (every region starts on a BlockSize boundary; offsets and
// lengths are recorded in the header):
//
//	offset 0                                         1 block
//	┌─────────────────────────────────────────────────────┐
//	│ header (128 bytes used, rest of the block zero)     │
//	│  0  magic "OASISIDX"        8  version    u32       │
//	│ 12  blockSize   u32        16  alphabet   u32 (0=aa,│
//	│ 24  numSeqs     u64        32  concatLen  u64  1=nt)│
//	│ 40  numInternal u64        48  symbolsOff u64       │
//	│ 56  internalOff u64        64  leavesOff  u64       │
//	│ 72  catalogOff  u64        80  catalogLen u64       │
//	│ 88  checksumOff u64 (v2; 0 in v1 files)             │
//	├─────────────────────────────────────────────────────┤
//	│ symbols: concatLen bytes, one symbol code per byte, │
//	│          terminator after each sequence             │
//	├─────────────────────────────────────────────────────┤
//	│ internal: numInternal × 16-byte records (BFS order) │
//	│   0 depth u32   4 edgeStart u32                     │
//	│   8 firstChild u32 (tagged)  12 flags u32 (bit 0 =  │
//	│                                 last sibling)       │
//	├─────────────────────────────────────────────────────┤
//	│ leaves: concatLen × 4-byte tagged next-sibling      │
//	│         pointers, indexed by suffix start position  │
//	├─────────────────────────────────────────────────────┤
//	│ catalog: u32 count, then per sequence               │
//	│          u32 idLen, id bytes, u64 length            │
//	├─────────────────────────────────────────────────────┤
//	│ checksums (v2): one u32 CRC32C (Castagnoli) per     │
//	│   blockSize-byte block of [0, checksumOff), in      │
//	│   block order, followed by one u32 CRC32C of the    │
//	│   table bytes themselves                            │
//	└─────────────────────────────────────────────────────┘
//
// # Checksums (format v2)
//
// Version 2 appends a checksum region after the catalog.  checksumOff (header
// byte 88) is block-aligned, so [0, checksumOff) is a whole number of
// blockSize-byte blocks; the region holds checksumOff/blockSize little-endian
// u32 CRC32C values — one per block, covering header, symbols, internal,
// leaves and catalog including their padding — then a final u32 CRC32C of the
// table itself (so table corruption is distinguishable from data corruption
// without a circular header dependency).  The writer stamps checksums from a
// read-back of the finished file; the reader verifies every block as it is
// read, i.e. on every buffer-pool fill, retrying transient read errors with
// capped exponential backoff first (see checksum.go).  Version 1 files have
// no table (checksumOff = 0) and still open, with ChecksumsEnabled reporting
// false ("checksums unavailable").
//
// Tagged pointers pack a leaf/internal discriminator into the high bit
// (ptrLeafBit): leaf targets are addressed by suffix position, internal
// targets by BFS index; 0xFFFFFFFF (ptrNone) ends a sibling chain.
//
// Children of a node are enumerated as: the node's leaf children first,
// chained through each leaf's tagged next-sibling pointer, followed by its
// internal children, which are contiguous in the internal region and
// delimited by a last-sibling flag.  This reproduces the paper's design
// ("siblings are adjacent ... we must maintain an explicit pointer to
// siblings" for leaves) without any extra per-node pointers.
//
// # Reading through the pool
//
// A search reads the file only through internal/bufferpool, whose hits take
// no lock: pin the page → re-validate it → read → unpin (see that package).
// Node and leaf records are decoded straight from the pinned page and the
// pin dropped at once; an edge label hands its symbols out in place, so the
// label's current symbol page is the ONE pin a search holds between pool
// calls — taken by the first Symbols call on a child, dropped before
// VisitChildren asks the pool for anything else and on every way out of it.
// Because no goroutine requests a page while it holds a pin, a pool whose
// every frame is pinned can wait for one: whoever holds the pins is not
// waiting on the pool.  (A callback that itself walks the index after
// reading its label holds one pin per level; that needs a pool with more
// frames than the walk is deep, which only tests do.)
//
// # Sharded layout (manifest.json)
//
// BuildSharded writes a DIRECTORY holding one or more single-file indexes
// plus a manifest.json that describes how they compose into one logical
// database (see Manifest; OpenSharded reverses it, giving every shard its
// own buffer pool so shard parallelism also parallelises page I/O):
//
//	{
//	  "version": 3,               // v1/v2 manifests still open (new fields
//	                              // read as zero/absent)
//	  "partition": "sequence" | "prefix",
//	  "shards": 4,
//	  "alphabet": "protein" | "dna",
//	  "block_size": 2048,
//	  "num_sequences": 117,          // whole logical database
//	  "total_residues": 29076,
//	  "checksums": true,             // v2: shard files carry CRC32C tables
//	  "shard_files": ["shard-0.oasis", ...],
//	  // partition=sequence: one file per shard over a disjoint sequence
//	  // subset, with shard-local -> global index maps
//	  "global_index": [[0,3,9,...], ...],
//	  // partition=prefix: exactly one shared file (every shard opens it
//	  // through its own pool) plus the suffix-prefix -> shard owner tables
//	  "prefix_assignment": {"shards":4, "width":20,
//	                        "owner_l1":[...], "owner_l2":[...]},
//	  // v3 mutable layer (all optional; absent on a freshly built index):
//	  "generation": 7,               // bumped by every compaction; readers
//	                                 // pin the generation they opened
//	  "deltas": [                    // compacted delta indexes, oldest first
//	    {"file": "delta-000007.oasis",
//	     "global_index": [117, 118], // dense append order: global indexes
//	                                 // continue after base + earlier deltas
//	     "residues": 451}
//	  ],
//	  "tombstones": [3, 118]         // deleted global sequence indexes
//	}
//
// # Mutable layer (manifest v3)
//
// Version 3 adds LSM-style incremental indexing on top of the immutable
// base files.  Inserted sequences live in an in-memory delta until a
// compaction folds them into an ordinary single-file index
// ("delta-<generation>.oasis", same byte layout as any shard file) and
// swaps in a new manifest with a bumped "generation".  The swap is atomic
// (write manifest.json.tmp, fsync, rename), so a crash mid-compaction
// leaves the previous manifest — and every file it references — intact.
//
// Delta "global_index" entries must be DENSE: each delta's sequences
// continue the global numbering exactly where base + earlier deltas left
// off (Validate enforces this), which keeps merged result streams
// deterministic across restarts.  "num_sequences"/"total_residues" keep
// describing the BASE shard files only, so the open-time cross-check
// against those files stays exact; live-corpus totals are derived by
// adding delta "residues" and subtracting tombstoned sequences.
// "tombstones" lists deleted global indexes (base and delta alike) — the
// sequences stay physically present in their files and search filters
// them during the merge.
//
// Shard file names are bare names resolved relative to the manifest's
// directory, so an index directory can be moved or mounted anywhere.
package diskst

import (
	"encoding/binary"
	"fmt"
)

const (
	// Magic identifies an OASIS index file.
	Magic = "OASISIDX"
	// Version is the current format version: 2 adds the per-block CRC32C
	// checksum region (see the package comment).
	Version = 2
	// versionNoChecksums is the legacy format without a checksum region;
	// still readable, reported via Index.ChecksumsEnabled.
	versionNoChecksums = 1
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

// Tagged child/sibling pointer encoding: the high bit marks leaf targets
// (addressed by suffix position), the remaining 31 bits hold the index;
// ptrNone marks the end of a chain.
const (
	ptrNone    = uint32(0xFFFFFFFF)
	ptrLeafBit = uint32(0x80000000)
	ptrMask    = uint32(0x7FFFFFFF)
)

// flag bits of internal-node records.
const (
	flagLastSibling = uint32(1 << 0)
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
	checksumOff  uint64 // 0 in v1 files: no checksum region
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
	}
	switch h.version {
	case Version:
		h.checksumOff = le.Uint64(buf[88:])
	case versionNoChecksums:
		// Legacy file: readable, but no checksum region to verify against.
		h.checksumOff = 0
	default:
		return nil, fmt.Errorf("diskst: unsupported version %d", h.version)
	}
	if h.blockSize == 0 {
		return nil, fmt.Errorf("diskst: zero block size")
	}
	return h, nil
}

// internalRecord is the decoded form of an internal-node record.
type internalRecord struct {
	depth      uint32
	edgeStart  uint32
	firstChild uint32 // tagged pointer
	flags      uint32
}

func (r internalRecord) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], r.depth)
	le.PutUint32(buf[4:], r.edgeStart)
	le.PutUint32(buf[8:], r.firstChild)
	le.PutUint32(buf[12:], r.flags)
}

func decodeInternalRecord(buf []byte) internalRecord {
	le := binary.LittleEndian
	return internalRecord{
		depth:      le.Uint32(buf[0:]),
		edgeStart:  le.Uint32(buf[4:]),
		firstChild: le.Uint32(buf[8:]),
		flags:      le.Uint32(buf[12:]),
	}
}

// taggedLeaf returns the tagged pointer to the leaf at suffix position pos.
func taggedLeaf(pos int64) uint32 { return ptrLeafBit | uint32(pos) }

// taggedInternal returns the tagged pointer to internal node idx.
func taggedInternal(idx int64) uint32 { return uint32(idx) }

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
