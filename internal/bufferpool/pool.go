// Package bufferpool implements the fixed-size page cache through which the
// on-disk suffix tree is read (paper Sections 3.4 and 4.5): pages are loaded
// on demand from their backing files, cached in a bounded set of frames, and
// evicted with a simple CLOCK (second-chance) replacement policy.
//
// # The read path
//
// A disk search makes tens of thousands of tiny reads per query of read-only
// files that are almost always resident, so a hit takes no lock.  Every file
// has a dense page table (one atomic word per page: the frame holding it) and
// every frame an atomic pin count.  A reader
//
//	loads the table entry → pins the frame → RE-READS the entry → uses the bytes → unpins
//
// and an eviction — under the mutex, which guards only misses, fills and the
// admin calls — withdraws the table entry FIRST and then re-checks the pin
// count, putting the entry back when a reader got there before it.  A reader
// whose re-read still shows its frame pinned it before the withdrawal, so the
// evictor sees the pin and the bytes stay until the unpin; any other reader
// touches no byte and retries.  Frame contents are published by the atomic
// table store that ends a fill and read only behind the atomic re-read:
// ordinary acquire/release synchronisation, not a seqlock, which `go test
// -race` checks.
//
// A miss needs an unpinned frame; when there is none it waits and rescans
// rather than fail.  That cannot deadlock as long as no goroutine asks the
// pool for a page while it holds a pin — every pin then belongs to a
// goroutine that is not waiting on the pool and will release it — which is
// the rule internal/diskst keeps: a search holds a pin only while it copies
// or decodes that page, never across a callback.  A caller that breaks it by
// pinning every frame itself gets an error after pinWait, not a hang.
//
// Per-file hit statistics let the Figure 8 experiment report hit ratios for
// the internal-node and leaf components separately (the disk index keeps its
// symbols resident, outside the pool), and Totals sums every file in one scan
// of the frames.  Hits are counted on the frame's own cache line and folded
// into the file on eviction, so readers of different pages share no counter.
package bufferpool

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
)

// FileID identifies a file registered with the pool.
type FileID int32

// DefaultPageSize is the disk block size used by the paper's implementation.
const DefaultPageSize = 2048

// pinWait bounds a miss's wait while every frame is pinned: far beyond what
// pins held under the package's rule last (one page copy or record decode
// each).
const pinWait = time.Second

// frame is a single buffer slot: 64 bytes, so a hit writes no cache line
// another frame's readers use.
type frame struct {
	// All a hit writes, lock-free: the pin count, the CLOCK reference bit and
	// the hits not yet folded into the owner.
	pins atomic.Int32
	ref  atomic.Bool
	hits atomic.Int64
	// data[:size] is page `page` of owner (nil: the frame is free); written
	// only under the mutex, while no table entry names the frame and no
	// validated pin holds it.
	data  []byte
	size  int
	owner *file
	page  int64
}

// file is one registered backing file.
type file struct {
	r    io.ReaderAt
	name string
	size int64
	// table[page] is 1 + the index of the frame holding the page, 0 when the
	// page is not resident.
	table []atomic.Int32
	// Under the pool mutex: the hits evicted frames folded in, and the
	// requests that went to the backing file.
	hits, misses int64
}

// FileStats accumulates access statistics for one registered file.
type FileStats struct {
	// Requests is the number of page requests issued.
	Requests int64
	// Hits is the number of requests served from the pool.
	Hits int64
}

// HitRatio returns Hits/Requests, or 0 when no requests were made.
func (s FileStats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// Pool is a page cache over a set of registered files.  All methods are safe
// for concurrent use.
type Pool struct {
	pageSize int
	frames   []frame
	// files is replaced, never modified, by Register, so readers index it
	// without the mutex.
	files atomic.Pointer[[]*file]

	// mu serialises everything but hits: misses and their fills, the CLOCK
	// hand, frame ownership, the per-file counters and the admin calls.
	mu   sync.Mutex
	hand int
}

// New creates a pool with the given total capacity in bytes and page size.
// A pageSize of 0 selects DefaultPageSize; the capacity is rounded up to at
// least four pages.
func New(capacityBytes int64, pageSize int) *Pool {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := int(capacityBytes / int64(pageSize))
	if n < 4 {
		n = 4
	}
	p := &Pool{pageSize: pageSize, frames: make([]frame, n)}
	for i := range p.frames {
		p.frames[i].data = make([]byte, pageSize)
	}
	p.files.Store(new([]*file))
	return p
}

// PageSize returns the page size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// NumFrames returns the number of buffer frames.
func (p *Pool) NumFrames() int { return len(p.frames) }

// Register adds a backing reader for a logical file and returns its ID.
// size is the file length in bytes; name is used in statistics reporting.
func (p *Pool) Register(name string, r io.ReaderAt, size int64) FileID {
	p.mu.Lock()
	defer p.mu.Unlock()
	pages := (max(size, 0) + int64(p.pageSize) - 1) / int64(p.pageSize)
	old := *p.files.Load()
	files := append(old[:len(old):len(old)], &file{r: r, name: name, size: size, table: make([]atomic.Int32, pages)})
	p.files.Store(&files)
	return FileID(len(old))
}

// Handle is a pinned page.  The data slice is valid until Release is called;
// callers must not modify it.  The zero Handle (Data == nil) holds nothing.
type Handle struct {
	fr *frame
	// Data holds the page contents (may be shorter than a full page for the
	// final page of a file).
	Data []byte
}

// Release unpins the page and zeroes the Handle, so releasing twice is a
// no-op.
func (h *Handle) Release() {
	if h.fr != nil {
		h.fr.pins.Add(-1)
		*h = Handle{}
	}
}

// Get pins and returns the pageNo-th page of the file.
func (p *Pool) Get(id FileID, pageNo int64) (Handle, error) {
	fr, err := p.pin(id, pageNo)
	if err != nil {
		return Handle{}, err
	}
	return Handle{fr: fr, Data: fr.data[:fr.size]}, nil
}

// pin is the one read path: it returns the frame holding the page, pinned —
// lock-free when the page is resident (see the package comment for the
// protocol), through the mutex and the backing file when it is not.
//
//oasis:hotpath
func (p *Pool) pin(id FileID, pageNo int64) (*frame, error) {
	files := *p.files.Load()
	// The range check is the table index, so a bad request costs nothing.
	if uint64(id) >= uint64(len(files)) || uint64(pageNo) >= uint64(len(files[id].table)) {
		return nil, errOutOfRange(id, "page", pageNo)
	}
	f := files[id]
	entry := &f.table[pageNo]
	for {
		e := entry.Load()
		if e == 0 {
			fr, err := p.fill(f, pageNo)
			if err != nil || fr != nil {
				return fr, err
			}
			continue // another goroutine made the page resident first
		}
		fr := &p.frames[e-1]
		fr.pins.Add(1)
		if entry.Load() != e {
			// Evicted between the load and the pin: the frame may already
			// be refilling, so its bytes are not ours to read.
			fr.pins.Add(-1)
			continue
		}
		if !fr.ref.Load() {
			fr.ref.Store(true)
		}
		fr.hits.Add(1)
		return fr, nil
	}
}

// errOutOfRange is built out of line, so pin and ReadAt hold no allocation for
// the escape gate to find.
//
//go:noinline
func errOutOfRange(id FileID, what string, n int64) error {
	return fmt.Errorf("bufferpool: %s %d out of range for file %d", what, n, id)
}

// fill loads the page into a frame evicted by CLOCK and returns it pinned.
// It returns nil and no error when the page turned out to be resident
// already; pin then takes the lock-free path again.
func (p *Pool) fill(f *file, pageNo int64) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry := &f.table[pageNo]
	if entry.Load() != 0 {
		return nil, nil
	}
	idx, err := p.evictLocked()
	if err != nil {
		return nil, err
	}
	if entry.Load() != 0 {
		return nil, nil // evictLocked let go of the mutex to wait for a pin
	}
	f.misses++
	fr := &p.frames[idx]
	off := pageNo * int64(p.pageSize)
	want := int(min(int64(p.pageSize), f.size-off))
	n := 0
	if err = faultpoint.Hit(faultpoint.SitePoolFill, f.name); err == nil {
		n, err = f.r.ReadAt(fr.data[:want], off)
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("bufferpool: reading page %d of %q: %w", pageNo, f.name, err)
	}
	if n < want {
		return nil, fmt.Errorf("bufferpool: short read on page %d of %q: %d < %d", pageNo, f.name, n, want)
	}
	fr.owner, fr.page, fr.size = f, pageNo, want
	fr.ref.Store(true)
	// Add, not Store: a reader that loaded this frame from a stale entry may
	// be between its pin and the re-read that will turn it away.
	fr.pins.Add(1)
	entry.Store(int32(idx + 1))
	return fr, nil
}

// evictLocked frees a frame using the CLOCK policy and returns its index.
// While every frame is pinned it waits — releasing the mutex, so the caller
// must re-check whatever it read before the call — and fails after pinWait.
func (p *Pool) evictLocked() (int, error) {
	var deadline time.Time
	for {
		// Two full sweeps: the first clears reference bits, the second evicts.
		for sweep := 0; sweep < 2*len(p.frames); sweep++ {
			idx := p.hand
			p.hand = (p.hand + 1) % len(p.frames)
			fr := &p.frames[idx]
			if fr.pins.Load() != 0 {
				continue
			}
			if fr.ref.Load() {
				fr.ref.Store(false)
				continue
			}
			if p.withdrawLocked(idx) {
				return idx, nil
			}
		}
		if now := time.Now(); deadline.IsZero() {
			deadline = now.Add(pinWait)
		} else if now.After(deadline) {
			return 0, fmt.Errorf("bufferpool: all %d frames are pinned", len(p.frames))
		}
		// Sleep rather than spin: the pins belong to goroutines that need a
		// processor to get to their release.
		p.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		p.mu.Lock()
	}
}

// withdrawLocked takes frame idx's page out of its file's table and folds
// the frame's hits into the file, leaving the frame free.  It reports false,
// with the page still resident, when a reader holds the frame pinned.
func (p *Pool) withdrawLocked(idx int) bool {
	fr := &p.frames[idx]
	if fr.owner == nil {
		return true
	}
	entry := &fr.owner.table[fr.page]
	entry.Store(0)
	if fr.pins.Load() != 0 {
		entry.Store(int32(idx + 1))
		return false
	}
	fr.owner.hits += fr.hits.Swap(0)
	fr.owner = nil
	return true
}

// ReadAt reads len(buf) bytes from the file starting at off, going through
// the page cache (possibly touching several pages): one pin per page, each
// dropped before the next, so it holds none between pool calls.
//
//oasis:hotpath
func (p *Pool) ReadAt(id FileID, buf []byte, off int64) error {
	for len(buf) > 0 {
		pageNo, inPage := off/int64(p.pageSize), int(off%int64(p.pageSize))
		fr, err := p.pin(id, pageNo)
		if err != nil {
			return err
		}
		n := 0
		if inPage < fr.size {
			n = copy(buf, fr.data[inPage:fr.size])
		}
		fr.pins.Add(-1)
		if n == 0 {
			return errOutOfRange(id, "offset", off)
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// Stats returns a snapshot of the statistics for a file; zero for an ID the
// pool never registered.
func (p *Pool) Stats(id FileID) FileStats {
	files := *p.files.Load()
	if uint64(id) >= uint64(len(files)) {
		return FileStats{}
	}
	return p.stats(files[id])
}

// Totals returns the statistics of every registered file summed — what Stats
// returns per file, added up — in one scan of the frames.
func (p *Pool) Totals() FileStats { return p.stats(nil) }

// stats sums the counters of file only, or of every file when only is nil:
// the folded-in counts of the files, then the hits of the frames they own.
func (p *Pool) stats(only *file) FileStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hits, misses int64
	for _, f := range *p.files.Load() {
		if only == nil || f == only {
			hits, misses = hits+f.hits, misses+f.misses
		}
	}
	for i := range p.frames {
		if fr := &p.frames[i]; fr.owner != nil && (only == nil || fr.owner == only) {
			hits += fr.hits.Load()
		}
	}
	return FileStats{Requests: hits + misses, Hits: hits}
}

// ResetStats zeroes the statistics of every registered file (used between
// experiment phases).
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range *p.files.Load() {
		f.hits, f.misses = 0, 0
	}
	for i := range p.frames {
		p.frames[i].hits.Store(0)
	}
}

// Clear drops every cached page, forcing subsequent reads to go to the
// backing files (used to cold-start experiments).  It fails, leaving the
// remaining pages cached, at the first pinned page.
func (p *Pool) Clear() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		if !p.withdrawLocked(i) {
			return fmt.Errorf("bufferpool: cannot clear, frame %d is pinned", i)
		}
		p.frames[i].ref.Store(false)
	}
	return nil
}

// PinnedPages returns the number of currently pinned pages (used by tests to
// detect pin leaks).
func (p *Pool) PinnedPages() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].pins.Load() > 0 {
			n++
		}
	}
	return n
}
