package diskst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// BuildOptions controls index construction and serialisation.
type BuildOptions struct {
	// BlockSize is the disk block size (default 2048, the paper's value).
	// It must be a multiple of the 16-byte internal record size.
	BlockSize int
}

// BuildStats summarises a written index; it backs the paper's space
// utilisation table.
type BuildStats struct {
	NumSequences   int
	TotalResidues  int64
	ConcatLen      int64
	NumInternal    int64
	NumLeaves      int64
	SymbolsBytes   int64
	InternalBytes  int64
	LeafBytes      int64
	CatalogBytes   int64
	ChecksumBytes  int64
	FileBytes      int64
	BytesPerSymbol float64
}

// Build constructs the suffix tree for the database (Ukkonen) and writes the
// index to path, returning size statistics.
func Build(path string, db *seq.Database, opts BuildOptions) (*BuildStats, error) {
	if db == nil {
		return nil, fmt.Errorf("diskst: nil database")
	}
	tree, err := suffixtree.BuildUkkonen(db)
	if err != nil {
		return nil, err
	}
	return Write(path, tree, opts)
}

// Write serialises an in-memory suffix tree into the on-disk format.
func Write(path string, tree *suffixtree.Tree, opts BuildOptions) (*BuildStats, error) {
	if tree == nil {
		return nil, fmt.Errorf("diskst: nil tree")
	}
	blockSize := opts.BlockSize
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize%internalRecordSize != 0 || blockSize < headerSize {
		return nil, fmt.Errorf("diskst: block size %d must be a multiple of %d and at least %d",
			blockSize, internalRecordSize, headerSize)
	}
	db := tree.DB()
	concat := db.Concat()
	if int64(len(concat)) > int64(ptrMask) {
		return nil, fmt.Errorf("diskst: database too large for 31-bit node pointers (%d symbols)", len(concat))
	}

	layoutNodes, err := layoutTree(tree)
	if err != nil {
		return nil, err
	}

	// Region offsets.
	symbolsOff := int64(blockSize)
	symbolsLen := int64(len(concat))
	internalOff := alignUp(symbolsOff+symbolsLen, int64(blockSize))
	internalLen := int64(len(layoutNodes.internal)) * internalRecordSize
	leavesOff := alignUp(internalOff+internalLen, int64(blockSize))
	leavesLen := int64(len(concat)) * leafRecordSize
	catalogOff := alignUp(leavesOff+leavesLen, int64(blockSize))
	catalog := encodeCatalog(db)
	// The checksum region starts on the block boundary after the catalog, so
	// [0, checksumOff) is a whole number of blocks and the offset is known
	// before any data is written (no header rewrite needed).
	checksumOff := alignUp(catalogOff+int64(len(catalog)), int64(blockSize))

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)

	kind := uint32(0)
	if db.Alphabet().Kind() == seq.KindDNA {
		kind = 1
	}
	h := header{
		version:      Version,
		blockSize:    uint32(blockSize),
		alphabetKind: kind,
		numSequences: uint64(db.NumSequences()),
		concatLen:    uint64(len(concat)),
		numInternal:  uint64(len(layoutNodes.internal)),
		symbolsOff:   uint64(symbolsOff),
		internalOff:  uint64(internalOff),
		leavesOff:    uint64(leavesOff),
		catalogOff:   uint64(catalogOff),
		catalogLen:   uint64(len(catalog)),
		checksumOff:  uint64(checksumOff),
	}
	written := int64(0)
	writeBytes := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	pad := func(to int64) error {
		if written > to {
			return fmt.Errorf("diskst: internal error: wrote %d bytes past offset %d", written, to)
		}
		for written < to {
			chunk := to - written
			if chunk > int64(blockSize) {
				chunk = int64(blockSize)
			}
			if err := writeBytes(make([]byte, chunk)); err != nil {
				return err
			}
		}
		return nil
	}

	if err := writeBytes(h.encode()); err != nil {
		return nil, err
	}
	if err := pad(symbolsOff); err != nil {
		return nil, err
	}
	if err := writeBytes(concat); err != nil {
		return nil, err
	}
	if err := pad(internalOff); err != nil {
		return nil, err
	}
	recBuf := make([]byte, internalRecordSize)
	for _, rec := range layoutNodes.internal {
		rec.encode(recBuf)
		if err := writeBytes(recBuf); err != nil {
			return nil, err
		}
	}
	if err := pad(leavesOff); err != nil {
		return nil, err
	}
	leafBuf := make([]byte, leafRecordSize)
	for _, next := range layoutNodes.leafNext {
		binary.LittleEndian.PutUint32(leafBuf, next)
		if err := writeBytes(leafBuf); err != nil {
			return nil, err
		}
	}
	if err := pad(catalogOff); err != nil {
		return nil, err
	}
	if err := writeBytes(catalog); err != nil {
		return nil, err
	}
	if err := pad(checksumOff); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	// Stamp the checksum table from a read-back of the finished file, so the
	// CRCs cover exactly the bytes that reached the OS — one CRC32C per
	// block of [0, checksumOff), then a CRC32C of the table itself.
	table, err := checksumFile(f, checksumOff, int64(blockSize))
	if err != nil {
		return nil, err
	}
	if err := writeBytes(table); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}

	st := &BuildStats{
		NumSequences:  db.NumSequences(),
		TotalResidues: db.TotalResidues(),
		ConcatLen:     int64(len(concat)),
		NumInternal:   int64(len(layoutNodes.internal)),
		NumLeaves:     int64(len(concat)),
		SymbolsBytes:  symbolsLen,
		InternalBytes: internalLen,
		LeafBytes:     leavesLen,
		CatalogBytes:  int64(len(catalog)),
		ChecksumBytes: int64(len(table)),
		FileBytes:     written,
	}
	if db.TotalResidues() > 0 {
		st.BytesPerSymbol = float64(written) / float64(db.TotalResidues())
	}
	return st, nil
}

// treeLayout holds the computed on-disk node layout.
type treeLayout struct {
	internal []internalRecord
	leafNext []uint32 // indexed by suffix position
}

// layoutTree numbers internal nodes in BFS order, builds their records, and
// computes every leaf's next-sibling pointer.
func layoutTree(tree *suffixtree.Tree) (*treeLayout, error) {
	db := tree.DB()
	concatLen := db.ConcatLen()
	lo := &treeLayout{leafNext: make([]uint32, concatLen)}
	for i := range lo.leafNext {
		lo.leafNext[i] = ptrNone
	}

	// BFS numbering of internal nodes.
	type qEntry struct {
		node suffixtree.NodeID
	}
	indexOf := map[suffixtree.NodeID]int64{}
	var order []suffixtree.NodeID
	queue := []qEntry{{node: tree.Root()}}
	indexOf[tree.Root()] = 0
	order = append(order, tree.Root())
	for head := 0; head < len(queue); head++ {
		n := queue[head].node
		for _, c := range tree.Children(n) {
			if !tree.IsLeaf(c) {
				indexOf[c] = int64(len(order))
				order = append(order, c)
				queue = append(queue, qEntry{node: c})
			}
		}
	}
	if int64(len(order)) > int64(ptrMask) {
		return nil, fmt.Errorf("diskst: too many internal nodes (%d)", len(order))
	}

	lo.internal = make([]internalRecord, len(order))
	for idx, n := range order {
		var leafKids []int64
		var internalKids []int64
		for _, c := range tree.Children(n) {
			if tree.IsLeaf(c) {
				leafKids = append(leafKids, tree.SuffixStart(c))
			} else {
				internalKids = append(internalKids, indexOf[c])
			}
		}
		sort.Slice(leafKids, func(a, b int) bool { return leafKids[a] < leafKids[b] })
		sort.Slice(internalKids, func(a, b int) bool { return internalKids[a] < internalKids[b] })
		// Sanity: BFS assigns the internal children of a node consecutive
		// indexes, which the reader's adjacency walk relies on.
		for i := 1; i < len(internalKids); i++ {
			if internalKids[i] != internalKids[i-1]+1 {
				return nil, fmt.Errorf("diskst: internal children of node %d not contiguous", idx)
			}
		}

		first := ptrNone
		if len(leafKids) > 0 {
			first = taggedLeaf(leafKids[0])
			for i := range leafKids {
				next := ptrNone
				if i+1 < len(leafKids) {
					next = taggedLeaf(leafKids[i+1])
				} else if len(internalKids) > 0 {
					next = taggedInternal(internalKids[0])
				}
				lo.leafNext[leafKids[i]] = next
			}
		} else if len(internalKids) > 0 {
			first = taggedInternal(internalKids[0])
		}

		rec := internalRecord{
			depth:      uint32(tree.Depth(n)),
			edgeStart:  uint32(tree.EdgeStart(n)),
			firstChild: first,
		}
		lo.internal[idx] = rec
	}
	// Last-sibling flags: internal node i is the last sibling when it is the
	// final internal child of its parent.  We recompute from the parent's
	// child lists.
	for idx, n := range order {
		_ = idx
		var internalKids []int64
		for _, c := range tree.Children(n) {
			if !tree.IsLeaf(c) {
				internalKids = append(internalKids, indexOf[c])
			}
		}
		if len(internalKids) > 0 {
			sort.Slice(internalKids, func(a, b int) bool { return internalKids[a] < internalKids[b] })
			last := internalKids[len(internalKids)-1]
			lo.internal[last].flags |= flagLastSibling
		}
	}
	// The root has no siblings.
	lo.internal[0].flags |= flagLastSibling
	return lo, nil
}

// encodeCatalog serialises sequence identifiers and lengths.
func encodeCatalog(db *seq.Database) []byte {
	var out []byte
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(db.NumSequences()))
	out = append(out, scratch[:4]...)
	for i := 0; i < db.NumSequences(); i++ {
		s := db.Sequence(i)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(s.ID)))
		out = append(out, scratch[:4]...)
		out = append(out, s.ID...)
		binary.LittleEndian.PutUint64(scratch[:8], uint64(s.Len()))
		out = append(out, scratch[:8]...)
	}
	return out
}

// decodeCatalog parses the catalog region.
func decodeCatalog(buf []byte) (ids []string, lengths []int64, err error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("diskst: catalog too short")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	off := 4
	for i := 0; i < n; i++ {
		if off+4 > len(buf) {
			return nil, nil, fmt.Errorf("diskst: truncated catalog entry %d", i)
		}
		idLen := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+idLen+8 > len(buf) {
			return nil, nil, fmt.Errorf("diskst: truncated catalog entry %d", i)
		}
		ids = append(ids, string(buf[off:off+idLen]))
		off += idLen
		lengths = append(lengths, int64(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	return ids, lengths, nil
}
