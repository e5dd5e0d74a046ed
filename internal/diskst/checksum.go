package diskst

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/retry"
)

// castagnoli is the CRC32C polynomial table; crc32.MakeTable caches it, so
// taking it once at init avoids a lookup per block.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Read-retry policy for transient disk errors: maxReadRetries re-reads with
// jittered capped exponential backoff (internal/retry) — the jitter keeps
// concurrent shard workers that failed together from retrying in lockstep
// against an already struggling disk.  Truncation (EOF-class) errors are
// permanent and never retried.
const (
	maxReadRetries = 3
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 10 * time.Millisecond
)

var readRetryPolicy = retry.Default(maxReadRetries, retryBaseDelay, retryMaxDelay)

// Package-level fault counters, surfaced through engine metrics and the
// Prometheus exposition in oasis-serve.
var (
	checksumFailures atomic.Int64
	readRetries      atomic.Int64
)

// FaultCounters is a snapshot of the package's lifetime fault counters.
type FaultCounters struct {
	// ChecksumFailures counts blocks whose CRC32C did not match even after a
	// re-read (i.e. corruption surfaced to the caller as a ChecksumError).
	ChecksumFailures int64
	// ReadRetries counts transient read errors that were retried (whether or
	// not the retry ultimately succeeded).
	ReadRetries int64
}

// Counters returns the package's lifetime fault counters.
func Counters() FaultCounters {
	return FaultCounters{
		ChecksumFailures: checksumFailures.Load(),
		ReadRetries:      readRetries.Load(),
	}
}

// ChecksumError reports a block whose stored CRC32C did not match its
// contents, even after a re-read.  It names the file, the block and its byte
// offset so operators can map it to the damaged region.
type ChecksumError struct {
	Path   string
	Block  int64 // block index within the file
	Offset int64 // byte offset of the block
	Want   uint32
	Got    uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("diskst: checksum mismatch in %s block %d (offset %d): stored %08x, computed %08x",
		e.Path, e.Block, e.Offset, e.Want, e.Got)
}

// OpenError reports a structural failure while opening an index file — a
// truncated or short read, bad header, or unreadable checksum table — naming
// the offending file and the byte offset where the read failed.
type OpenError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("diskst: open %s: at offset %d: %v", e.Path, e.Offset, e.Err)
}

func (e *OpenError) Unwrap() error { return e.Err }

// CorruptError reports records that passed their checksums but do not
// describe a tree: a search that meets one stops instead of following it (see
// "Children as runs" in the package comment).
type CorruptError struct {
	Path   string
	Node   int64 // the internal node whose records are inconsistent
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("diskst: corrupt index %s: node %d: %s", e.Path, e.Node, e.Detail)
}

// verifyingReader is an io.ReaderAt over a whole index file that (a) retries
// transient read errors with capped exponential backoff, and (b) verifies the
// CRC32C of every block it touches — the section readers registered with the
// buffer pool sit on top of it, so every buffer-pool fill is verified
// regardless of the pool's page size.
//
// On a mismatch the block is re-read once (a bit flip in transit differs from
// one at rest); a persistent mismatch returns a ChecksumError.
type verifyingReader struct {
	f    io.ReaderAt
	path string

	// The per-block CRC32C table covering [0, limit), with limit a multiple
	// of blockSize; nil only while Open reads the header that locates it.
	sums      []uint32
	blockSize int64
	limit     int64
}

// readRawAt reads into p at off with transient-error retries (and the
// SiteDiskRead failpoint).  It tolerates io.EOF on an exactly-full read.
func (r *verifyingReader) readRawAt(p []byte, off int64) error {
	for attempt := 0; ; attempt++ {
		err := faultpoint.Hit(faultpoint.SiteDiskRead, r.path)
		if err == nil {
			var n int
			n, err = r.f.ReadAt(p, off)
			if n == len(p) {
				err = nil
			}
		}
		if err == nil {
			return nil
		}
		// Truncation is permanent: retrying a short file cannot help.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return err
		}
		if attempt >= maxReadRetries {
			return fmt.Errorf("diskst: read %s at offset %d failed after %d retries: %w",
				r.path, off, maxReadRetries, err)
		}
		readRetries.Add(1)
		time.Sleep(readRetryPolicy.Delay(attempt))
	}
}

// ReadAt implements io.ReaderAt.  Reads inside the checksummed range are
// served block by block, verifying each block's CRC32C after the (possibly
// fault-injected) read.
func (r *verifyingReader) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.sums == nil || off >= r.limit {
		// Open's first header read, or one past the checksummed range.
		if err := r.readRawAt(p, off); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	bs := r.blockSize
	end := off + int64(len(p))
	if end > r.limit {
		return 0, fmt.Errorf("diskst: read %s [%d,%d) crosses checksummed range end %d", r.path, off, end, r.limit)
	}
	var scratch []byte
	for cur := off; cur < end; {
		block := cur / bs
		blockStart := block * bs
		blockEnd := blockStart + bs
		if cur == blockStart && end >= blockEnd {
			// The request covers this whole block: read and verify in place.
			dst := p[cur-off : blockEnd-off]
			if err := r.verifyBlock(dst, block); err != nil {
				return 0, err
			}
			cur = blockEnd
			continue
		}
		// Partial block: read the full block into scratch and copy the slice.
		if scratch == nil {
			scratch = make([]byte, bs)
		}
		if err := r.verifyBlock(scratch, block); err != nil {
			return 0, err
		}
		to := blockEnd
		if to > end {
			to = end
		}
		copy(p[cur-off:to-off], scratch[cur-blockStart:to-blockStart])
		cur = to
	}
	return len(p), nil
}

// verifyBlock reads block into dst (len(dst) == blockSize) and checks its
// CRC32C, re-reading once on mismatch.
func (r *verifyingReader) verifyBlock(dst []byte, block int64) error {
	off := block * r.blockSize
	for attempt := 0; ; attempt++ {
		if err := r.readRawAt(dst, off); err != nil {
			return err
		}
		// Corruption injection point: the block as read, before verification.
		_ = faultpoint.HitBuf(faultpoint.SiteDiskBlock, r.path, dst)
		got := crc32.Checksum(dst, castagnoli)
		if got == r.sums[block] {
			return nil
		}
		if attempt == 0 {
			// One re-read distinguishes a transient in-flight flip from
			// corruption at rest.
			readRetries.Add(1)
			continue
		}
		checksumFailures.Add(1)
		return &ChecksumError{Path: r.path, Block: block, Offset: off, Want: r.sums[block], Got: got}
	}
}

// loadChecksumTable reads and validates the checksum table at
// hdr.checksumOff, returning the per-block CRC32C values.  fileSize bounds
// the header-derived geometry BEFORE any allocation: the header itself is
// unverified at this point, and a corrupted checksumOff must produce an
// error, not an attempt to allocate a table for a petabyte of blocks.
func loadChecksumTable(r *verifyingReader, hdr *header, fileSize int64) ([]uint32, error) {
	bs := int64(hdr.blockSize)
	limit := int64(hdr.checksumOff)
	if limit <= 0 || limit%bs != 0 || limit >= fileSize {
		return nil, fmt.Errorf("diskst: bad checksum offset %d (block size %d, file size %d)", limit, bs, fileSize)
	}
	nBlocks := limit / bs
	if limit+nBlocks*checksumEntrySize+checksumEntrySize > fileSize {
		return nil, fmt.Errorf("diskst: checksum table for %d blocks does not fit in %d-byte file", nBlocks, fileSize)
	}
	raw := make([]byte, nBlocks*checksumEntrySize+checksumEntrySize)
	if err := r.readRawAt(raw, limit); err != nil {
		return nil, fmt.Errorf("diskst: reading checksum table: %w", err)
	}
	table := raw[:nBlocks*checksumEntrySize]
	wantTableCRC := leUint32(raw[nBlocks*checksumEntrySize:])
	if got := crc32.Checksum(table, castagnoli); got != wantTableCRC {
		checksumFailures.Add(1)
		return nil, &ChecksumError{
			Path: r.path, Block: -1, Offset: limit,
			Want: wantTableCRC, Got: got,
		}
	}
	sums := make([]uint32, nBlocks)
	for i := range sums {
		sums[i] = leUint32(table[i*checksumEntrySize:])
	}
	return sums, nil
}

// checksumFile computes the encoded checksum table for [0, limit) of r: one
// little-endian u32 CRC32C per blockSize bytes, followed by the CRC32C of the
// table itself.  The writer calls it on the finished file; VerifyIndex calls
// it to recompute expected checksums during a deep scrub.
func checksumFile(r io.ReaderAt, limit, blockSize int64) ([]byte, error) {
	if limit%blockSize != 0 {
		return nil, fmt.Errorf("diskst: checksum range %d not block-aligned (block size %d)", limit, blockSize)
	}
	nBlocks := limit / blockSize
	table := make([]byte, 0, (nBlocks+1)*checksumEntrySize)
	buf := make([]byte, blockSize)
	var scratch [checksumEntrySize]byte
	for b := int64(0); b < nBlocks; b++ {
		if n, err := r.ReadAt(buf, b*blockSize); n != len(buf) {
			return nil, fmt.Errorf("diskst: checksum read-back at block %d: %w", b, err)
		}
		putLeUint32(scratch[:], crc32.Checksum(buf, castagnoli))
		table = append(table, scratch[:]...)
	}
	putLeUint32(scratch[:], crc32.Checksum(table, castagnoli))
	return append(table, scratch[:]...), nil
}

// checksumEntrySize is the on-disk size of one checksum table entry.
const checksumEntrySize = 4

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
