package diskst

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/seq"
)

// Index is the disk-resident suffix tree opened for searching.  All node and
// symbol accesses go through the buffer pool, so the cost of a search is
// governed by the pool size exactly as in the paper's Figures 7 and 8.
//
// Index implements core.Index.
type Index struct {
	path string
	file *os.File
	vr   *verifyingReader
	pool *bufferpool.Pool
	hdr  *header

	symbolsFile  bufferpool.FileID
	internalFile bufferpool.FileID
	leavesFile   bufferpool.FileID
	// pageSize is the pool's page size: a multiple of both record sizes
	// (Open insists), so no record straddles a page.
	pageSize int64

	alphabet *seq.Alphabet
	seqIDs   []string
	loc      *seq.Locator // the sequences' extents in the symbol region

	// labels recycles the edge-label object of each VisitChildren call.
	labels sync.Pool
}

// Open maps an index file through the supplied buffer pool.
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
	// are retried, and once the v2 checksum table is loaded every block is
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
	if size := uint64(fi.Size()); hdr.concatLen > size/leafRecordSize || hdr.numInternal > size/internalRecordSize || hdr.catalogLen > size {
		return fail(0, fmt.Errorf("header describes more than the %d-byte file holds", size))
	}
	if hdr.checksumOff != 0 {
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
	idx.labels.New = func() any { return &lazyLabel{idx: idx} }
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
	symbolsLen := int64(hdr.concatLen)
	internalLen := int64(hdr.numInternal) * internalRecordSize
	leavesLen := int64(hdr.concatLen) * leafRecordSize
	idx.symbolsFile = pool.Register(path+"#symbols", io.NewSectionReader(vr, int64(hdr.symbolsOff), symbolsLen), symbolsLen)
	idx.internalFile = pool.Register(path+"#internal", io.NewSectionReader(vr, int64(hdr.internalOff), internalLen), internalLen)
	idx.leavesFile = pool.Register(path+"#leaves", io.NewSectionReader(vr, int64(hdr.leavesOff), leavesLen), leavesLen)
	return idx, nil
}

// ChecksumsEnabled reports whether the index file carries a v2 per-block
// CRC32C table the reader verifies against; false means a v1 file opened in
// compatibility mode ("checksums unavailable").
func (x *Index) ChecksumsEnabled() bool { return x.vr.sums != nil }

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

// SymbolsFile, InternalFile and LeavesFile expose the buffer-pool file IDs of
// the three index components so experiments can report per-component hit
// ratios (Figure 8).
func (x *Index) SymbolsFile() bufferpool.FileID  { return x.symbolsFile }
func (x *Index) InternalFile() bufferpool.FileID { return x.internalFile }
func (x *Index) LeavesFile() bufferpool.FileID   { return x.leavesFile }

// Pool returns the buffer pool the index reads through.
func (x *Index) Pool() *bufferpool.Pool { return x.pool }

// readInternal decodes internal-node record i straight from its pinned page.
//
//oasis:hotpath
func (x *Index) readInternal(i int64) (internalRecord, error) {
	if uint64(i) >= x.hdr.numInternal {
		return internalRecord{}, errOutOfRange("internal node", i)
	}
	off := i * internalRecordSize
	h, err := x.pool.Get(x.internalFile, off/x.pageSize)
	if err != nil {
		return internalRecord{}, err
	}
	rec := decodeInternalRecord(h.Data[off%x.pageSize:])
	h.Release()
	return rec, nil
}

// readLeafNext fetches the tagged next-sibling pointer of the leaf at suffix
// position pos.
//
//oasis:hotpath
func (x *Index) readLeafNext(pos int64) (uint32, error) {
	if uint64(pos) >= x.hdr.concatLen {
		return 0, errOutOfRange("leaf position", pos)
	}
	off := pos * leafRecordSize
	h, err := x.pool.Get(x.leavesFile, off/x.pageSize)
	if err != nil {
		return 0, err
	}
	next := binary.LittleEndian.Uint32(h.Data[off%x.pageSize:])
	h.Release()
	return next, nil
}

// errOutOfRange is built out of line (as is errBounds below), so the
// per-request functions hold no allocation for the escape gate to find.
//
//go:noinline
func errOutOfRange(what string, i int64) error {
	return fmt.Errorf("diskst: %s %d out of range", what, i)
}

// Root implements core.Index.
func (x *Index) Root() core.NodeRef { return core.InternalRef(0) }

// lazyLabel is a core.EdgeLabel that hands out symbols in place from the
// pinned page of the symbol region they live on: an edge is read only as far
// as the column sweep gets (OASIS usually prunes or accepts after a handful
// of columns), and without a copy.  One instance serves every child of a
// VisitChildren call and goes back to Index.labels afterwards.  page is the
// one pin a search holds between pool calls (see the package comment).
type lazyLabel struct {
	idx    *Index
	start  int64 // global symbol position of the first label symbol
	length int
	page   bufferpool.Handle
	pageNo int64  // of page, while it is held
	buf    []byte // for the ranges that straddle a page boundary
}

// Len implements core.EdgeLabel.
func (l *lazyLabel) Len() int { return l.length }

// Symbols implements core.EdgeLabel.
//
//oasis:hotpath
func (l *lazyLabel) Symbols(from, to int) ([]byte, error) {
	if from < 0 || to > l.length || from > to {
		return nil, l.errBounds(from, to)
	}
	if from == to {
		return nil, nil
	}
	x := l.idx
	pos, n := l.start+int64(from), to-from
	pageNo, inPage := pos/x.pageSize, int(pos%x.pageSize)
	if inPage+n > int(x.pageSize) {
		// The range straddles a page boundary: copy it out, holding no pin
		// while the pool is asked for the pages.
		l.page.Release()
		if cap(l.buf) < n {
			l.buf = make([]byte, n) //oasis:allow-alloc kept with the pooled label, so it grows a handful of times per process
		}
		if err := x.pool.ReadAt(x.symbolsFile, l.buf[:n], pos); err != nil {
			return nil, err
		}
		return l.buf[:n], nil
	}
	if l.page.Data == nil || l.pageNo != pageNo {
		l.page.Release()
		var err error
		if l.page, err = x.pool.Get(x.symbolsFile, pageNo); err != nil {
			return nil, err
		}
		l.pageNo = pageNo
	}
	if inPage+n > len(l.page.Data) {
		return nil, errOutOfRange("symbol range ending at", pos+int64(n))
	}
	return l.page.Data[inPage : inPage+n], nil
}

//go:noinline
func (l *lazyLabel) errBounds(from, to int) error {
	return fmt.Errorf("diskst: label range [%d,%d) out of bounds (len %d)", from, to, l.length)
}

// VisitChildren implements core.Index: it walks the child chain of an
// internal node — leaf children first (linked through the leaf array),
// then internal children (physically adjacent, ended by the last-sibling
// flag) — handing each child's edge label to fn.
func (x *Index) VisitChildren(ref core.NodeRef, parentDepth int, fn func(child core.NodeRef, label core.EdgeLabel) error) error {
	if ref.IsLeaf() {
		return nil // leaves have no children
	}
	rec, err := x.readInternal(ref.InternalIndex())
	if err != nil {
		return err
	}
	label := x.labels.Get().(*lazyLabel)
	defer func() { // a panicking fn must not leak the pin either
		label.page.Release()
		x.labels.Put(label)
	}()
	for cur := rec.firstChild; cur != ptrNone; {
		var child core.NodeRef
		next := ptrNone
		if cur&ptrLeafBit != 0 {
			pos := int64(cur & ptrMask)
			// The edge runs from the parent's depth to one past the
			// terminator of the sequence the suffix lies in.
			i, _, err := x.loc.Locate(pos)
			if err != nil {
				return err
			}
			label.start = pos + int64(parentDepth)
			label.length = int(x.loc.Start(i+1) - label.start)
			if label.length < 0 {
				return fmt.Errorf("diskst: corrupt index: leaf %d shallower than parent depth %d", pos, parentDepth)
			}
			if next, err = x.readLeafNext(pos); err != nil {
				return err
			}
			child = core.LeafRef(pos)
		} else {
			idx := int64(cur & ptrMask)
			childRec, err := x.readInternal(idx)
			if err != nil {
				return err
			}
			label.start, label.length = int64(childRec.edgeStart), int(childRec.depth)-parentDepth
			if label.length <= 0 {
				return fmt.Errorf("diskst: corrupt index: child %d depth %d <= parent depth %d", idx, childRec.depth, parentDepth)
			}
			if childRec.flags&flagLastSibling == 0 {
				next = taggedInternal(idx + 1)
			}
			child = core.InternalRef(idx)
		}
		err := fn(child, label)
		label.page.Release() // before the pool is asked for the next record
		if err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// LeafPositions implements core.Index.
func (x *Index) LeafPositions(ref core.NodeRef, fn func(pos int64) bool) error {
	stop := false
	var walk func(ref core.NodeRef, depth int) error
	walk = func(ref core.NodeRef, depth int) error {
		if stop {
			return nil
		}
		if ref.IsLeaf() {
			if !fn(ref.LeafPos()) {
				stop = true
			}
			return nil
		}
		return x.VisitChildren(ref, depth, func(child core.NodeRef, label core.EdgeLabel) error {
			return walk(child, depth+label.Len())
		})
	}
	if ref.IsLeaf() {
		return walk(ref, 0)
	}
	// The traversal needs the starting node's true path depth so that edge
	// lengths (derived from depth differences) are computed correctly.
	rec, err := x.readInternal(ref.InternalIndex())
	if err != nil {
		return err
	}
	return walk(ref, int(rec.depth))
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
func (c *diskCatalog) Locate(pos int64) (int, int64, error) {
	return c.loc.Locate(pos)
}
func (c *diskCatalog) Residues(i int) ([]byte, error) {
	if i < 0 || i >= len(c.seqIDs) {
		return nil, fmt.Errorf("diskst: sequence index %d out of range", i)
	}
	buf := make([]byte, c.SequenceLength(i))
	if err := c.pool.ReadAt(c.symbolsFile, buf, c.loc.Start(i)); err != nil {
		return nil, err
	}
	return buf, nil
}

// Stats summarises the index regions; used by the space-utilisation table.
func (x *Index) Stats() BuildStats {
	internalLen := int64(x.hdr.numInternal) * internalRecordSize
	leavesLen := int64(x.hdr.concatLen) * leafRecordSize
	st := BuildStats{
		NumSequences:  len(x.seqIDs),
		TotalResidues: x.Catalog().TotalResidues(),
		ConcatLen:     int64(x.hdr.concatLen),
		NumInternal:   int64(x.hdr.numInternal),
		NumLeaves:     int64(x.hdr.concatLen),
		SymbolsBytes:  int64(x.hdr.concatLen),
		InternalBytes: internalLen,
		LeafBytes:     leavesLen,
		CatalogBytes:  int64(x.hdr.catalogLen),
	}
	if fi, err := os.Stat(x.path); err == nil {
		st.FileBytes = fi.Size()
		if st.TotalResidues > 0 {
			st.BytesPerSymbol = float64(fi.Size()) / float64(st.TotalResidues)
		}
	}
	return st
}

var _ core.Index = (*Index)(nil)
