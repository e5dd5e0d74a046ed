package bufferpool

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// memFile builds an in-memory ReaderAt with deterministic contents.
func memFile(size int) *bytes.Reader {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 251)
	}
	return bytes.NewReader(data)
}

func TestGetReturnsCorrectPageContents(t *testing.T) {
	p := New(16*64, 64)
	f := p.Register("data", memFile(1000), 1000)
	h, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if len(h.Data) != 64 {
		t.Fatalf("page size = %d", len(h.Data))
	}
	for i, b := range h.Data {
		if b != byte((3*64+i)%251) {
			t.Fatalf("byte %d wrong", i)
		}
	}
}

func TestGetLastPartialPage(t *testing.T) {
	p := New(16*64, 64)
	f := p.Register("data", memFile(100), 100)
	h, err := p.Get(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if len(h.Data) != 36 {
		t.Fatalf("partial page size = %d, want 36", len(h.Data))
	}
}

func TestGetOutOfRange(t *testing.T) {
	p := New(16*64, 64)
	f := p.Register("data", memFile(100), 100)
	if _, err := p.Get(f, 5); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := p.Get(f, -1); err == nil {
		t.Fatal("expected negative-page error")
	}
	if _, err := p.Get(FileID(99), 0); err == nil {
		t.Fatal("expected unknown-file error")
	}
}

func TestHitAndMissAccounting(t *testing.T) {
	p := New(8*64, 64)
	f := p.Register("data", memFile(1000), 1000)
	for i := 0; i < 3; i++ {
		h, err := p.Get(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	st := p.Stats(f)
	if st.Requests != 3 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 3 requests 2 hits", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio = %v", r)
	}
	p.ResetStats()
	if st := p.Stats(f); st.Requests != 0 || st.Hits != 0 {
		t.Fatalf("ResetStats failed: %+v", st)
	}
	if (FileStats{}).HitRatio() != 0 {
		t.Fatal("empty hit ratio should be 0")
	}
}

func TestEvictionKeepsWorkingSetSmall(t *testing.T) {
	// 4 frames, 10 pages: cycling through all pages must evict, and every
	// read must still return correct data.
	p := New(4*64, 64)
	f := p.Register("data", memFile(640), 640)
	for round := 0; round < 3; round++ {
		for pg := int64(0); pg < 10; pg++ {
			h, err := p.Get(f, pg)
			if err != nil {
				t.Fatal(err)
			}
			if h.Data[0] != byte((int(pg)*64)%251) {
				t.Fatalf("wrong data after eviction on page %d", pg)
			}
			h.Release()
		}
	}
	if p.PinnedPages() != 0 {
		t.Fatal("pages left pinned")
	}
}

func TestClockPrefersUnreferencedFrames(t *testing.T) {
	p := New(4*64, 64)
	f := p.Register("data", memFile(64*8), 64*8)
	// Fill the pool with pages 0..3, then load page 4: the first sweep
	// clears every reference bit and evicts page 0.
	for pg := int64(0); pg < 5; pg++ {
		h, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// Re-touch page 3 so its reference bit is set again, then load a new
	// page: CLOCK must give page 3 a second chance and evict one of the
	// unreferenced pages instead.
	h, _ := p.Get(f, 3)
	h.Release()
	h, err := p.Get(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	before := p.Stats(f).Hits
	h, _ = p.Get(f, 3)
	h.Release()
	if p.Stats(f).Hits != before+1 {
		t.Fatal("page 3 was evicted despite its reference bit")
	}
}

func TestAllFramesPinned(t *testing.T) {
	p := New(4*64, 64)
	f := p.Register("data", memFile(64*8), 64*8)
	var handles []Handle
	for pg := int64(0); pg < 4; pg++ {
		h, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if _, err := p.Get(f, 5); err == nil {
		t.Fatal("expected all-pinned error")
	}
	if err := p.Clear(); err == nil {
		t.Fatal("Clear should fail while pages are pinned")
	}
	for i := range handles {
		handles[i].Release()
	}
	if _, err := p.Get(f, 5); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestPinningSamePageTwice(t *testing.T) {
	p := New(4*64, 64)
	f := p.Register("data", memFile(64*4), 64*4)
	h1, _ := p.Get(f, 1)
	h2, _ := p.Get(f, 1)
	if p.PinnedPages() != 1 {
		t.Fatalf("PinnedPages = %d, want 1 (one frame, two pins)", p.PinnedPages())
	}
	h1.Release()
	h1.Release() // double release is a no-op
	if p.PinnedPages() != 1 {
		t.Fatal("double release corrupted pin count")
	}
	h2.Release()
	if p.PinnedPages() != 0 {
		t.Fatal("pin count should be zero")
	}
}

func TestReadAtSpanningPages(t *testing.T) {
	p := New(8*64, 64)
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(i % 256)
	}
	f := p.Register("data", bytes.NewReader(data), int64(len(data)))
	buf := make([]byte, 200)
	if err := p.ReadAt(f, buf, 30); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[30:230]) {
		t.Fatal("ReadAt returned wrong data")
	}
	if err := p.ReadAt(f, make([]byte, 10), 600); err == nil {
		t.Fatal("expected error past EOF")
	}
	if p.PinnedPages() != 0 {
		t.Fatal("ReadAt leaked pins")
	}
}

func TestClearDropsCachedPages(t *testing.T) {
	p := New(8*64, 64)
	f := p.Register("data", memFile(640), 640)
	h, _ := p.Get(f, 0)
	h.Release()
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	h, _ = p.Get(f, 0)
	h.Release()
	st := p.Stats(f)
	if st.Hits != 0 {
		t.Fatalf("expected a miss after Clear, stats = %+v", st)
	}
}

func TestMultipleFiles(t *testing.T) {
	p := New(8*64, 64)
	fa := p.Register("a", memFile(640), 640)
	fb := p.Register("b", bytes.NewReader(bytes.Repeat([]byte{7}, 640)), 640)
	ha, _ := p.Get(fa, 0)
	hb, _ := p.Get(fb, 0)
	if ha.Data[1] == hb.Data[1] {
		t.Fatal("files should have different contents")
	}
	ha.Release()
	hb.Release()
	if p.Stats(fa).Requests != 1 || p.Stats(fb).Requests != 1 {
		t.Fatal("per-file stats not separated")
	}
}

// TestTotalsIsTheSumOfStats: the one-scan pool total equals the per-file
// Stats added up — with hits still on resident frames and hits folded in by
// evictions, and after ResetStats — and an ID the pool never registered reads
// zero.
func TestTotalsIsTheSumOfStats(t *testing.T) {
	p := New(6*64, 64)
	files := []FileID{
		p.Register("a", memFile(640), 640),
		p.Register("b", memFile(1000), 1000),
		p.Register("c", memFile(64), 64),
	}
	sum := func() (s FileStats) {
		for _, f := range files {
			st := p.Stats(f)
			s.Requests += st.Requests
			s.Hits += st.Hits
		}
		return s
	}
	rng := rand.New(rand.NewSource(5))
	var buf [100]byte
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			f := files[rng.Intn(len(files))]
			size := []int{640, 1000, 64}[f]
			n := 1 + rng.Intn(min(len(buf), size))
			if err := p.ReadAt(f, buf[:n], int64(rng.Intn(size-n+1))); err != nil {
				t.Fatal(err)
			}
		}
		got, want := p.Totals(), sum()
		if got != want || got.Hits == 0 || got.Hits == got.Requests {
			t.Fatalf("round %d: Totals %+v, per-file Stats sum to %+v (want equal, with both hits and misses)", round, got, want)
		}
		if st := p.Stats(-1); st != (FileStats{}) {
			t.Fatalf("an unregistered ID reports %+v", st)
		}
		if round == 1 {
			p.ResetStats()
			if st := p.Totals(); st != (FileStats{}) {
				t.Fatalf("Totals after ResetStats: %+v", st)
			}
		}
	}
}

func TestDefaultsAndMinimumFrames(t *testing.T) {
	p := New(0, 0)
	if p.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d", p.PageSize())
	}
	if p.NumFrames() < 4 {
		t.Fatalf("NumFrames = %d", p.NumFrames())
	}
}

// countingReader counts the fills a pool makes from its backing file.
type countingReader struct {
	r     *bytes.Reader
	fills atomic.Int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.fills.Add(1)
	return c.r.ReadAt(p, off)
}

// TestConcurrentAccess is the lock-free read path's stress (run it under
// -race): pools far smaller than the file, so readers race evictions
// constantly, while ReadAt (page-straddling included), Get/Release, Stats and
// Clear run side by side.  Every byte read must be the file's, no pin may
// leak, and the counters must come out exact: one request per page asked
// for, each either a hit or a fill.
func TestConcurrentAccess(t *testing.T) {
	const pageSize, pages, workers, rounds = 64, 64, 8, 2000
	// Every page's bytes encode its own number.
	data := make([]byte, pageSize*pages)
	for i := range data {
		data[i] = byte(i/pageSize)*3 + byte(i%pageSize)
	}
	for _, frames := range []int{4, 8} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			p := New(int64(frames*pageSize), pageSize)
			src := &countingReader{r: bytes.NewReader(data)}
			f := p.Register("data", src, int64(len(data)))
			var issued atomic.Int64 // page requests made
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					buf := make([]byte, 3*pageSize)
					for i := 0; i < rounds; i++ {
						switch op := rng.Intn(20); {
						case op == 0:
							// Only a page pinned by another worker makes this fail.
							if err := p.Clear(); err != nil && !strings.Contains(err.Error(), "pinned") {
								t.Error(err)
								return
							}
						case op == 1:
							if st := p.Stats(f); st.Hits < 0 || st.Hits > st.Requests {
								t.Errorf("inconsistent snapshot %+v", st)
								return
							}
						case op < 10:
							pg := rng.Intn(pages)
							h, err := p.Get(f, int64(pg))
							if err != nil {
								t.Error(err)
								return
							}
							ok := bytes.Equal(h.Data, data[pg*pageSize:(pg+1)*pageSize])
							h.Release()
							issued.Add(1)
							if !ok {
								t.Errorf("page %d: wrong bytes", pg)
								return
							}
						default:
							off := rng.Intn(len(data) - len(buf))
							n := 1 + rng.Intn(len(buf))
							if err := p.ReadAt(f, buf[:n], int64(off)); err != nil {
								t.Error(err)
								return
							}
							issued.Add(int64((off+n-1)/pageSize - off/pageSize + 1))
							if !bytes.Equal(buf[:n], data[off:off+n]) {
								t.Errorf("ReadAt(%d, %d): wrong bytes", off, n)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if n := p.PinnedPages(); n != 0 {
				t.Fatalf("%d pages left pinned", n)
			}
			st := p.Stats(f)
			if st.Requests != issued.Load() || st.Requests != st.Hits+src.fills.Load() {
				t.Fatalf("stats %+v, want %d requests = hits + %d fills", st, issued.Load(), src.fills.Load())
			}
			// The same holds from a reset on, whatever the frames had counted.
			p.ResetStats()
			before := src.fills.Load()
			if err := p.ReadAt(f, make([]byte, len(data)), 0); err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(f); st.Requests != pages || st.Hits+src.fills.Load()-before != pages {
				t.Fatalf("after ResetStats: %+v with %d fills, want %d requests", st, src.fills.Load()-before, pages)
			}
		})
	}
}

// TestOutOfRangeRequestEvictsNothing: a request for a page the file does not
// have must fail without costing a resident page its frame.
func TestOutOfRangeRequestEvictsNothing(t *testing.T) {
	p := New(4*64, 64)
	f := p.Register("data", memFile(64*8), 64*8)
	for pg := int64(0); pg < 4; pg++ { // fill every frame
		h, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if _, err := p.Get(f, 99); err == nil {
		t.Fatal("expected out-of-range error")
	}
	before := p.Stats(f)
	for pg := int64(0); pg < 4; pg++ {
		h, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if after := p.Stats(f); after.Hits != before.Hits+4 {
		t.Fatalf("the bad request evicted a resident page: %+v -> %+v", before, after)
	}
}

// Property: reading arbitrary in-range (offset, length) windows through the
// pool returns exactly the underlying bytes.
func TestReadAtProperty(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte((i * 37) % 256)
	}
	p := New(6*128, 128) // small pool forces evictions
	f := p.Register("data", bytes.NewReader(data), int64(len(data)))
	check := func(off uint16, ln uint8) bool {
		o := int64(off) % int64(len(data))
		l := int(ln)
		if o+int64(l) > int64(len(data)) {
			l = int(int64(len(data)) - o)
		}
		buf := make([]byte, l)
		if err := p.ReadAt(f, buf, o); err != nil {
			return false
		}
		return bytes.Equal(buf, data[o:int(o)+l])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
