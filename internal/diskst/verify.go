package diskst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bufferpool"
)

// VerifyProblem is one defect found by a deep scrub.
type VerifyProblem struct {
	// File is the index file containing the defect.
	File string
	// Block is the damaged block index — for a tree violation, the block of
	// the offending record — or -1 for problems of the file as a whole (bad
	// header, unreadable catalog, corrupt checksum table, truncation).
	Block int64
	// Offset is the byte offset of the defect within the file.
	Offset int64
	// Detail describes the defect.
	Detail string
}

// VerifyReport summarises a deep scrub of an index file or directory.
type VerifyReport struct {
	// Files is the number of index files scanned.
	Files int
	// Blocks is the total number of checksummed blocks scanned.
	Blocks int64
	// Problems lists every defect found; an empty list means the scrub
	// passed.
	Problems []VerifyProblem
}

// OK reports whether the scrub found no problems.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// VerifyIndex deep-scrubs one index file: it re-reads every block of the
// checksummed range and compares CRC32C values against the stored table, opens
// the index (header, catalog, region registration) and then proves the tree
// structure record by record (verifyTree).  The returned error reports only
// the inability to scrub (e.g. a missing file); corruption is reported through
// the report's Problems list.
func VerifyIndex(path string) (*VerifyReport, error) {
	rep := &VerifyReport{Files: 1}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	problem := func(block, off int64, detail string) (*VerifyReport, error) {
		rep.Problems = append(rep.Problems, VerifyProblem{File: path, Block: block, Offset: off, Detail: detail})
		return rep, nil
	}

	hdrBuf := make([]byte, headerSize)
	if n, err := f.ReadAt(hdrBuf, 0); n != headerSize {
		return problem(-1, int64(n), fmt.Sprintf("truncated header: %v", err))
	}
	hdr, err := decodeHeader(hdrBuf)
	if err != nil {
		return problem(-1, 0, err.Error())
	}

	bs := int64(hdr.blockSize)
	limit := int64(hdr.checksumOff)
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	vr := &verifyingReader{f: f, path: path}
	sums, err := loadChecksumTable(vr, hdr, fi.Size())
	if err != nil {
		return problem(-1, limit, fmt.Sprintf("checksum table: %v", err))
	}
	rep.Blocks = int64(len(sums))
	// Recompute every block's CRC32C; keep scanning past failures so one
	// scrub reports every damaged block.
	buf := make([]byte, bs)
	for b := range rep.Blocks {
		if n, err := f.ReadAt(buf, b*bs); n != len(buf) {
			problem(b, b*bs, fmt.Sprintf("short read: %v", err))
		} else if got := crc32.Checksum(buf, castagnoli); got != sums[b] {
			problem(b, b*bs, fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", sums[b], got))
		}
	}
	if len(rep.Problems) > 0 {
		return rep, nil
	}

	// Structural pass: a full Open exercises header/catalog consistency
	// checks through the same verified read path searches use; then the tree.
	idx, err := Open(path, bufferpool.New(1<<20, int(hdr.blockSize)))
	if err != nil {
		off := int64(0)
		if oe, ok := err.(*OpenError); ok {
			off = oe.Offset
		}
		return problem(-1, off, err.Error())
	}
	defer idx.Close()
	if p := idx.verifyTree(); p != nil {
		rep.Problems = append(rep.Problems, *p)
	}
	return rep, nil
}

// verifyTree proves the level-order CSR structure (see the package comment) in
// one sequential pass — a cursor over the records as parents, one over the
// same records as children, one over the leaves region: firstChild and
// leafStart run from (1, 0) to the sentinel's (numInternal, concatLen) without
// decreasing, so the child runs partition the records and the leaf runs the
// leaves region; firstChild[i] > i; every child is deeper than its parent and
// its edge lies inside the symbols; every leaf run ascends, each suffix still
// inside its sequence at the parent's depth; and no position appears twice, so
// the leaves region is a permutation of [0, concatLen).  It returns the first
// violation, at the file offset of the offending record, or nil.
func (x *Index) verifyTree() *VerifyProblem {
	numInternal, concatLen := int64(x.hdr.numInternal), int64(x.hdr.concatLen)
	cursor := func(off uint64, from, n int64) *bufio.Reader {
		return bufio.NewReaderSize(io.NewSectionReader(x.vr, int64(off)+from, n-from), 1<<16)
	}
	parents := cursor(x.hdr.internalOff, 0, (numInternal+1)*internalRecordSize)
	children := cursor(x.hdr.internalOff, internalRecordSize, (numInternal+1)*internalRecordSize)
	leaves := cursor(x.hdr.leavesOff, 0, concatLen*leafRecordSize)
	recordAt := func(i int64) int64 { return int64(x.hdr.internalOff) + i*internalRecordSize }
	bad := func(off int64, err error) *VerifyProblem {
		return &VerifyProblem{File: x.path, Block: off / int64(x.hdr.blockSize), Offset: off, Detail: err.Error()}
	}
	var raw [internalRecordSize]byte
	record := func(r *bufio.Reader) (internalRecord, error) {
		_, err := io.ReadFull(r, raw[:])
		return decodeInternalRecord(raw[:]), err
	}
	seen := make([]uint64, (concatLen+63)/64)

	rec, err := record(parents)
	if err == nil && (rec.firstChild != 1 || rec.leafStart != 0) {
		err = fmt.Errorf("the root's children start at record %d and leaf %d, want 1 and 0", rec.firstChild, rec.leafStart)
	}
	if err != nil {
		return bad(recordAt(0), err)
	}
	child, leaf := int64(1), int64(0) // where the children and leaves cursors stand
	for i := int64(0); i < numInternal; i++ {
		next, err := record(parents)
		if err == nil {
			err = x.checkRuns(i, i+1, rec, next)
		}
		if err != nil {
			return bad(recordAt(i), err)
		}
		for ; child < int64(next.firstChild); child++ {
			c, err := record(children)
			if err == nil && (c.depth <= rec.depth || int64(c.edgeStart)+int64(c.depth-rec.depth) > concatLen) {
				err = fmt.Errorf("node %d (depth %d, edge at %d) is not a proper child of node %d (depth %d) inside %d symbols",
					child, c.depth, c.edgeStart, i, rec.depth, concatLen)
			}
			if err != nil {
				return bad(recordAt(child), err)
			}
		}
		for prev := int64(-1); leaf < int64(next.leafStart); leaf++ {
			_, err := io.ReadFull(leaves, raw[:leafRecordSize])
			pos := int64(binary.LittleEndian.Uint32(raw[:]))
			s, _, outside := x.loc.Locate(pos)
			switch {
			case err != nil:
			case outside != nil:
				err = outside
			case pos <= prev:
				err = fmt.Errorf("leaf run of node %d does not ascend: %d after %d", i, pos, prev)
			case pos+int64(rec.depth) >= x.loc.Start(s+1):
				err = fmt.Errorf("leaf %d under node %d (depth %d) runs past the end of its sequence", pos, i, rec.depth)
			case seen[pos/64]&(1<<(pos%64)) != 0:
				err = fmt.Errorf("suffix position %d appears twice in the leaves region", pos)
			}
			if err != nil {
				return bad(int64(x.hdr.leavesOff)+leaf*leafRecordSize, err)
			}
			seen[pos/64] |= 1 << (pos % 64)
			prev = pos
		}
		rec = next
	}
	if int64(rec.firstChild) != numInternal || int64(rec.leafStart) != concatLen {
		return bad(recordAt(numInternal), fmt.Errorf("sentinel record is (%d, %d), want (%d, %d)", rec.firstChild, rec.leafStart, numInternal, concatLen))
	}
	return nil
}

// VerifyIndexDir deep-scrubs a sharded index directory: the manifest is
// validated, then every distinct shard file — base shards and compacted
// deltas alike — is scrubbed with VerifyIndex.
func VerifyIndexDir(dir string) (*VerifyReport, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	for _, name := range m.files() {
		one, err := VerifyIndex(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		rep.Files += one.Files
		rep.Blocks += one.Blocks
		rep.Problems = append(rep.Problems, one.Problems...)
	}
	return rep, nil
}
