package diskst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

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

// Build constructs the suffix tree for the database (suffixtree.Build, from a
// suffix array) and writes the index to path, returning size statistics.
func Build(path string, db *seq.Database, opts BuildOptions) (*BuildStats, error) {
	if db == nil {
		return nil, fmt.Errorf("diskst: nil database")
	}
	tree, err := suffixtree.Build(db)
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
	if int64(len(concat)) > math.MaxUint32 {
		return nil, fmt.Errorf("diskst: database too large for 32-bit positions (%d symbols)", len(concat))
	}
	internal, leaves := layoutTree(tree)

	// Region offsets.
	symbolsOff := int64(blockSize)
	internalOff := alignUp(symbolsOff+int64(len(concat)), int64(blockSize))
	leavesOff := alignUp(internalOff+int64(len(internal)), int64(blockSize))
	catalogOff := alignUp(leavesOff+int64(len(leaves)), int64(blockSize))
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
		numInternal:  uint64(tree.NumInternal()),
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

	for _, region := range []struct {
		off  int64
		data []byte
	}{{0, h.encode()}, {symbolsOff, concat}, {internalOff, internal}, {leavesOff, leaves}, {catalogOff, catalog}, {checksumOff, nil}} {
		if err := pad(region.off); err != nil {
			return nil, err
		}
		if err := writeBytes(region.data); err != nil {
			return nil, err
		}
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

	st := h.stats(db.TotalResidues(), written)
	return &st, nil
}

// stats is the BuildStats of a file with this header: what Write returns and
// what Index.Stats reports, so the two agree by construction.
func (h *header) stats(totalResidues, fileBytes int64) BuildStats {
	st := BuildStats{
		NumSequences:  int(h.numSequences),
		TotalResidues: totalResidues,
		ConcatLen:     int64(h.concatLen),
		NumInternal:   int64(h.numInternal),
		NumLeaves:     int64(h.concatLen),
		SymbolsBytes:  int64(h.concatLen),
		InternalBytes: int64(h.numInternal+1) * internalRecordSize, // the sentinel
		LeafBytes:     int64(h.concatLen) * leafRecordSize,
		CatalogBytes:  int64(h.catalogLen),
		ChecksumBytes: max(fileBytes-int64(h.checksumOff), 0),
		FileBytes:     fileBytes,
	}
	if totalResidues > 0 {
		st.BytesPerSymbol = float64(fileBytes) / float64(totalResidues)
	}
	return st
}

// layoutTree numbers the internal nodes in BFS order and encodes the internal
// and leaves regions in one pass: visiting node i appends its internal
// children to the queue — so they take the next record numbers, right after
// the children of node i-1 — and its leaf children, ascending, to the leaves
// region; both run starts are known by then, so record i is written whole.
func layoutTree(tree *suffixtree.Tree) (internal, leaves []byte) {
	internal = make([]byte, 0, (tree.NumInternal()+1)*internalRecordSize)
	leaves = make([]byte, 0, tree.NumLeaves()*leafRecordSize)
	queue := make([]suffixtree.NodeID, 1, tree.NumInternal()) // queue[i] is the node of record i
	queue[0] = tree.Root()
	var run []uint32 // the visited node's leaf children
	for i := 0; i < len(queue); i++ {
		internal = internalRecord{
			depth:      uint32(tree.Depth(queue[i])),
			edgeStart:  uint32(tree.EdgeStart(queue[i])),
			firstChild: uint32(len(queue)),
			leafStart:  uint32(len(leaves) / leafRecordSize),
		}.appendTo(internal)
		run = run[:0]
		for c := tree.FirstChild(queue[i]); c != suffixtree.NoNode; c = tree.NextSibling(c) {
			if tree.IsLeaf(c) {
				run = append(run, uint32(tree.SuffixStart(c)))
			} else {
				queue = append(queue, c)
			}
		}
		slices.Sort(run)
		for _, pos := range run {
			leaves = binary.LittleEndian.AppendUint32(leaves, pos)
		}
	}
	sentinel := internalRecord{firstChild: uint32(len(queue)), leafStart: uint32(len(leaves) / leafRecordSize)}
	return sentinel.appendTo(internal), leaves
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
