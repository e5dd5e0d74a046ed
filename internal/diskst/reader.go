package diskst

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/seq"
)

// Index is the disk-resident suffix tree opened for searching.  Internal
// records and leaf runs are read through the buffer pool, so the cost of a
// search is governed by the pool size as in the paper's Figures 7 and 8; the
// symbol region, 1 byte per residue, is read once at Open and kept resident,
// so an edge label is a slice of it (see "Reading through the pool" in the
// package comment).
//
// Index implements core.Index.
type Index struct {
	path string
	file *os.File
	vr   *verifyingReader
	pool *bufferpool.Pool
	hdr  *header

	// symbols is the symbol region, CRC-verified block by block as Open read
	// it: every edge label is a slice of it.
	symbols      []byte
	internalFile bufferpool.FileID
	leavesFile   bufferpool.FileID
	// pageSize is the pool's page size: a multiple of both record sizes
	// (Open insists), so no record straddles a page.
	pageSize int64

	alphabet *seq.Alphabet
	seqIDs   []string
	loc      *seq.Locator // the sequences' extents in the symbol region

	// visits recycles the scratch of each VisitChildren call.
	visits sync.Pool
}

// Open maps an index file through the supplied buffer pool, reading its
// symbol region (1 byte per residue) into memory at once.
func Open(path string, pool *bufferpool.Pool) (*Index, error) {
	if pool == nil {
		return nil, fmt.Errorf("diskst: nil buffer pool")
	}
	if pool.PageSize()%internalRecordSize != 0 {
		return nil, fmt.Errorf("diskst: pool page size %d is not a multiple of the %d-byte node record", pool.PageSize(), internalRecordSize)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// All reads — including the header and catalog here, and every later
	// buffer-pool fill — go through the verifying reader: transient errors
	// are retried, and once the checksum table is loaded every block is
	// CRC-verified.
	vr := &verifyingReader{f: f, path: path}
	fail := func(off uint64, err error) (*Index, error) {
		f.Close()
		return nil, &OpenError{Path: path, Offset: int64(off), Err: err}
	}
	hdrBuf := make([]byte, headerSize)
	if _, err := vr.ReadAt(hdrBuf, 0); err != nil {
		return fail(0, fmt.Errorf("reading header: %w", err))
	}
	hdr, err := decodeHeader(hdrBuf)
	if err != nil {
		return fail(0, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(0, err)
	}
	// The header's counts size allocations (catalog, locator, page tables):
	// none may describe more than the file holds.
	if size := uint64(fi.Size()); hdr.concatLen > size/leafRecordSize || hdr.numInternal >= size/internalRecordSize || hdr.catalogLen > size {
		return fail(0, fmt.Errorf("header describes more than the %d-byte file holds", size))
	}
	sums, err := loadChecksumTable(vr, hdr, fi.Size())
	if err != nil {
		return fail(hdr.checksumOff, err)
	}
	vr.sums = sums
	vr.blockSize = int64(hdr.blockSize)
	vr.limit = int64(hdr.checksumOff)
	// Re-read the header block through the now-armed verifier so header
	// corruption that still decodes is caught at open time.
	if _, err := vr.ReadAt(hdrBuf, 0); err != nil {
		return fail(0, err)
	}
	catBuf := make([]byte, hdr.catalogLen)
	if _, err := vr.ReadAt(catBuf, int64(hdr.catalogOff)); err != nil {
		return fail(hdr.catalogOff, fmt.Errorf("reading catalog: %w", err))
	}
	ids, lens, err := decodeCatalog(catBuf)
	if err != nil {
		return fail(hdr.catalogOff, err)
	}
	if uint64(len(ids)) != hdr.numSequences {
		f.Close()
		return nil, fmt.Errorf("diskst: catalog has %d sequences, header says %d", len(ids), hdr.numSequences)
	}
	idx := &Index{
		path:     path,
		file:     f,
		vr:       vr,
		pool:     pool,
		hdr:      hdr,
		pageSize: int64(pool.PageSize()),
		alphabet: seq.Protein,
		seqIDs:   ids,
	}
	idx.visits.New = func() any { return new(visit) }
	if hdr.alphabetKind == 1 {
		idx.alphabet = seq.DNA
	}
	var concat uint64
	for _, l := range lens {
		concat += min(uint64(l), hdr.concatLen) + 1 // terminator; a wild length cannot wrap the sum
	}
	if concat != hdr.concatLen {
		f.Close()
		return nil, fmt.Errorf("diskst: catalog lengths sum to %d, header concatLen is %d", concat, hdr.concatLen)
	}
	idx.loc = seq.NewLocator(len(lens), func(i int) int64 { return lens[i] })
	// The symbol region is read like any pool fill, through the verifying
	// reader, so a damaged block fails the open rather than a search.
	idx.symbols = make([]byte, hdr.concatLen)
	if _, err := vr.ReadAt(idx.symbols, int64(hdr.symbolsOff)); err != nil {
		return fail(hdr.symbolsOff, fmt.Errorf("reading symbols: %w", err))
	}
	internalLen := int64(hdr.numInternal+1) * internalRecordSize // the sentinel
	leavesLen := int64(hdr.concatLen) * leafRecordSize
	idx.internalFile = pool.Register(path+"#internal", io.NewSectionReader(vr, int64(hdr.internalOff), internalLen), internalLen)
	idx.leavesFile = pool.Register(path+"#leaves", io.NewSectionReader(vr, int64(hdr.leavesOff), leavesLen), leavesLen)
	return idx, nil
}

// Close releases the underlying file.  Pages already cached in the buffer
// pool remain until evicted.
func (x *Index) Close() error { return x.file.Close() }

// Path returns the index file path.
func (x *Index) Path() string { return x.path }

// BlockSize returns the block size the index was written with.
func (x *Index) BlockSize() int { return int(x.hdr.blockSize) }

// NumInternal returns the number of internal nodes.
func (x *Index) NumInternal() int64 { return int64(x.hdr.numInternal) }

// NumLeaves returns the number of leaves (= concatenated length).
func (x *Index) NumLeaves() int64 { return int64(x.hdr.concatLen) }

// InternalFile and LeavesFile expose the buffer-pool file IDs of the two
// index components read through the pool, so experiments can report
// per-component hit ratios (Figure 8).
func (x *Index) InternalFile() bufferpool.FileID { return x.internalFile }
func (x *Index) LeavesFile() bufferpool.FileID   { return x.leavesFile }

// SymbolsFile returns an ID no pool registers: the symbol region is resident,
// so Pool.Stats(SymbolsFile()) reads zero requests.  It stays for callers that
// report the paper's three components side by side.
func (x *Index) SymbolsFile() bufferpool.FileID { return -1 }

// Pool returns the buffer pool the index reads through.
func (x *Index) Pool() *bufferpool.Pool { return x.pool }

// readPair decodes internal-node records i and j (i < j; j may be the
// sentinel) straight from their pinned pages — one request when both lie on
// one page, as the (i, i+1) of a node's expansion nearly always do — and
// holds them to checkRuns.
//
//oasis:hotpath
func (x *Index) readPair(i, j int64) (a, b internalRecord, err error) {
	if uint64(i) >= x.hdr.numInternal || uint64(j) > x.hdr.numInternal {
		return a, b, errOutOfRange("internal node", i)
	}
	offA, offB := i*internalRecordSize, j*internalRecordSize
	h, err := x.pool.Get(x.internalFile, offA/x.pageSize)
	if err != nil {
		return a, b, err
	}
	a = decodeInternalRecord(h.Data[offA%x.pageSize:])
	if offB/x.pageSize != offA/x.pageSize {
		h.Release()
		if h, err = x.pool.Get(x.internalFile, offB/x.pageSize); err != nil {
			return a, b, err
		}
	}
	b = decodeInternalRecord(h.Data[offB%x.pageSize:])
	h.Release()
	return a, b, x.checkRuns(i, j, a, b)
}

// checkRuns is the forward-progress invariant of the format (see the package
// comment) on records lo and hi, lo < hi: the records' children — internal
// [a.firstChild, b.firstChild), leaf [a.leafStart, b.leafStart) — are runs
// inside their regions, and the internal ones start at or after hi.
func (x *Index) checkRuns(lo, hi int64, a, b internalRecord) error {
	if int64(a.firstChild) < hi || a.firstChild > b.firstChild || uint64(b.firstChild) > x.hdr.numInternal ||
		a.leafStart > b.leafStart || uint64(b.leafStart) > x.hdr.concatLen {
		return &CorruptError{Path: x.path, Node: lo, Detail: fmt.Sprintf(
			"children [%d,%d) and leaves [%d,%d) of nodes [%d,%d) do not lie ahead of them inside %d nodes and %d leaves",
			a.firstChild, b.firstChild, a.leafStart, b.leafStart, lo, hi, x.hdr.numInternal, x.hdr.concatLen)}
	}
	return nil
}

// copyRun copies the n bytes at off of a region into *buf, grown to fit — a
// node's leaf run or its child records, either of which may straddle pages:
// one pin per page, each dropped before the next (Pool.ReadAt).  *buf is kept
// with the pooled visit, so it grows a handful of times per process.
//
//oasis:hotpath
func (x *Index) copyRun(buf *[]byte, file bufferpool.FileID, off, n int64) ([]byte, error) {
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	run := (*buf)[:n]
	return run, x.pool.ReadAt(file, run, off)
}

// errOutOfRange is built out of line (as are VisitChildren's errors below),
// so the per-request functions hold no allocation for the escape gate to find.
//
//go:noinline
func errOutOfRange(what string, i int64) error {
	return fmt.Errorf("diskst: %s %d out of range", what, i)
}

// Root implements core.Index.
func (x *Index) Root() core.NodeRef { return core.InternalRef(0) }

// visit is the scratch of one VisitChildren call, recycled through
// Index.visits: the expanded node's leaf run and child records, copied out of
// their pages before the first callback.  Edge labels need no scratch: each
// is a slice of the resident symbols.
type visit struct {
	leaves, kids []byte
}

// VisitChildren implements core.Index: one read of the node's record pair,
// one copy of its leaf run and one of its child records, then the callbacks —
// leaf children ascending by position, then internal children in sibling
// order — handing each child's edge label to fn with no page pinned.
//
//oasis:hotpath
func (x *Index) VisitChildren(ref core.NodeRef, parentDepth int, fn func(child core.NodeRef, label []byte) error) error {
	if ref.IsLeaf() {
		return nil // leaves have no children
	}
	node := ref.InternalIndex()
	rec, next, err := x.readPair(node, node+1)
	if err != nil {
		return err
	}
	v := x.visits.Get().(*visit)
	defer x.visits.Put(v)
	leaves, err := x.copyRun(&v.leaves, x.leavesFile, int64(rec.leafStart)*leafRecordSize, int64(next.leafStart-rec.leafStart)*leafRecordSize)
	if err != nil {
		return err
	}
	kids, err := x.copyRun(&v.kids, x.internalFile, int64(rec.firstChild)*internalRecordSize, int64(next.firstChild-rec.firstChild)*internalRecordSize)
	if err != nil {
		return err
	}
	for ; len(leaves) > 0; leaves = leaves[leafRecordSize:] {
		pos := int64(binary.LittleEndian.Uint32(leaves))
		// The edge runs from the parent's depth to one past the terminator
		// of the sequence the suffix lies in.
		i, _, err := x.loc.Locate(pos)
		if err != nil {
			return err
		}
		start, end := pos+int64(parentDepth), x.loc.Start(i+1)
		if start >= end {
			return x.errShallowLeaf(node, pos, parentDepth)
		}
		if err := fn(core.LeafRef(pos), x.symbols[start:end]); err != nil {
			return err
		}
	}
	for child := int64(rec.firstChild); len(kids) > 0; child, kids = child+1, kids[internalRecordSize:] {
		childRec := decodeInternalRecord(kids)
		start := int64(childRec.edgeStart)
		end := start + int64(childRec.depth) - int64(parentDepth)
		if end <= start || end > int64(len(x.symbols)) {
			return x.errBadEdge(node, child, childRec, parentDepth)
		}
		if err := fn(core.InternalRef(child), x.symbols[start:end]); err != nil {
			return err
		}
	}
	return nil
}

//go:noinline
func (x *Index) errShallowLeaf(node, pos int64, parentDepth int) error {
	return &CorruptError{Path: x.path, Node: node, Detail: fmt.Sprintf("leaf %d is not deeper than parent depth %d", pos, parentDepth)}
}

//go:noinline
func (x *Index) errBadEdge(node, child int64, rec internalRecord, parentDepth int) error {
	return &CorruptError{Path: x.path, Node: node, Detail: fmt.Sprintf("child %d (depth %d, edge at %d) is not a proper child of depth %d inside %d symbols",
		child, rec.depth, rec.edgeStart, parentDepth, len(x.symbols))}
}

// leafChunk is how many bytes of the leaves region LeafPositions copies out
// at a time: a page of the default size, on the goroutine's stack.
const leafChunk = 2048

// LeafPositions implements core.Index.  The descendants of a node at each
// level are one run of records [lo, hi) whose leaf children are one run of
// the leaves region, so the walk is two record reads and one sequential scan
// per level; lo strictly increases, so it ends however the records are
// crafted.  Positions are copied out a chunk at a time: fn runs with no page
// pinned.
func (x *Index) LeafPositions(ref core.NodeRef, fn func(pos int64) bool) error {
	if ref.IsLeaf() {
		fn(ref.LeafPos())
		return nil
	}
	var chunk [leafChunk]byte
	for lo, hi := ref.InternalIndex(), ref.InternalIndex()+1; lo < hi; {
		first, end, err := x.readPair(lo, hi)
		if err != nil {
			return err
		}
		for off, stop := int64(first.leafStart)*leafRecordSize, int64(end.leafStart)*leafRecordSize; off < stop; {
			run := chunk[:min(stop-off, leafChunk-off%leafChunk)] // chunks end where pages do
			if err := x.pool.ReadAt(x.leavesFile, run, off); err != nil {
				return err
			}
			off += int64(len(run))
			for ; len(run) > 0; run = run[leafRecordSize:] {
				if !fn(int64(binary.LittleEndian.Uint32(run))) {
					return nil
				}
			}
		}
		lo, hi = int64(first.firstChild), int64(end.firstChild)
	}
	return nil
}

// Catalog implements core.Index.
func (x *Index) Catalog() core.Catalog { return (*diskCatalog)(x) }

// diskCatalog exposes the catalog view of an Index.
type diskCatalog Index

func (c *diskCatalog) Alphabet() *seq.Alphabet { return c.alphabet }
func (c *diskCatalog) NumSequences() int       { return len(c.seqIDs) }
func (c *diskCatalog) SequenceID(i int) string { return c.seqIDs[i] }
func (c *diskCatalog) SequenceLength(i int) int {
	return int(c.loc.Start(i+1)-c.loc.Start(i)) - 1 // terminator
}
func (c *diskCatalog) TotalResidues() int64 { return c.loc.Len() - int64(len(c.seqIDs)) }
func (c *diskCatalog) Locate(pos int64) (int, error) {
	i, _, err := c.loc.Locate(pos)
	return i, err
}
func (c *diskCatalog) Residues(i int) ([]byte, error) {
	if i < 0 || i >= len(c.seqIDs) {
		return nil, fmt.Errorf("diskst: sequence index %d out of range", i)
	}
	start := c.loc.Start(i)
	return slices.Clone(c.symbols[start : start+int64(c.SequenceLength(i))]), nil
}

// Stats summarises the index regions; used by the space-utilisation table.
func (x *Index) Stats() BuildStats {
	var size int64
	if fi, err := os.Stat(x.path); err == nil {
		size = fi.Size()
	}
	return x.hdr.stats(x.Catalog().TotalResidues(), size)
}

var _ core.Index = (*Index)(nil)
