package diskst

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// searchFixture builds a random DNA index and opens it behind a pool of the
// given number of 512-byte frames, beside the memory index over the same
// database and a handful of queries cut from it.
func searchFixture(t *testing.T, frames int) (*Index, *core.MemoryIndex, [][]byte, core.Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	var strs []string
	for i := 0; i < 24; i++ {
		strs = append(strs, randomDNA(rng, 60+rng.Intn(120)))
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strs...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.oasis")
	if _, err := Build(path, db, BuildOptions{BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	idx, err := Open(path, bufferpool.New(int64(frames)*512, 512))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	mem, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]byte
	for i := 0; i < 16; i++ {
		s := strs[rng.Intn(len(strs))]
		from := rng.Intn(len(s) - 14)
		queries = append(queries, seq.DNA.MustEncode(s[from:from+14]))
	}
	return idx, mem, queries, core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 7}
}

// hitKeys reduces a result list to what every correct search agrees on: the
// (sequence, score) pairs, in a canonical order.
func hitKeys(hits []core.Hit) [][2]int {
	out := make([][2]int, len(hits))
	for i, h := range hits {
		out[i] = [2]int{h.SeqIndex, h.Score}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestConcurrentSearchesTinyPool: 16 searches at once over one index whose
// pool has 4 frames — so misses keep finding frames pinned by the other
// searches' record and run reads and must wait rather than fail — return
// exactly the memory index's hits and leave nothing pinned.
func TestConcurrentSearchesTinyPool(t *testing.T) {
	idx, mem, queries, opts := searchFixture(t, 4)
	want := make([][][2]int, len(queries))
	for i, q := range queries {
		hits, err := core.SearchAll(mem, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatalf("query %d has no hits; the fixture is too selective", i)
		}
		want[i] = hitKeys(hits)
	}
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				hits, err := core.SearchAll(idx, queries[i], opts)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				got := hitKeys(hits)
				if len(got) != len(want[i]) {
					t.Errorf("query %d: %d hits, memory index has %d", i, len(got), len(want[i]))
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						t.Errorf("query %d: hit %v, memory index has %v", i, got[k], want[i][k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if n := idx.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// cancelAfter is a context whose Err turns to Canceled at its n-th call.  The
// searcher polls after every 256th DP column, in the middle of an edge
// whenever that column is not the edge's last; pinned records how many pages
// were pinned when the cancellation was seen.
type cancelAfter struct {
	context.Context
	pool   *bufferpool.Pool
	polls  atomic.Int64
	n      int64
	pinned int
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		c.pinned = c.pool.PinnedPages()
		return context.Canceled
	}
	return nil
}

// TestSearchExitsHoldNoPin is the pin discipline of a disk search: a search
// holds no pin across any callback — the runs are copied out of their pages
// before the first one, and an edge label is a slice of the resident symbols
// — and none is left pinned however a traversal ends: the callback fails, the
// context is cancelled in the middle of an edge, a fill fails.
func TestSearchExitsHoldNoPin(t *testing.T) {
	idx, _, queries, opts := searchFixture(t, 8)
	pool := idx.Pool()
	noPin := func(t *testing.T, where string) {
		t.Helper()
		if n := pool.PinnedPages(); n != 0 {
			t.Fatalf("%d pages pinned %s", n, where)
		}
	}
	check := func(t *testing.T, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("ended with %v, want %v", err, want)
		}
		noPin(t, "after the search ended")
	}
	t.Run("every callback", func(t *testing.T) {
		// The whole tree, walked from inside the callbacks, with every label
		// read in full before and after the walk below it.
		var walk func(ref core.NodeRef, depth int) error
		walk = func(ref core.NodeRef, depth int) error {
			return idx.VisitChildren(ref, depth, func(c core.NodeRef, label []byte) error {
				noPin(t, "inside a VisitChildren callback")
				read := string(label)
				noPin(t, "after reading a label")
				if err := idx.LeafPositions(c, func(int64) bool { noPin(t, "inside a LeafPositions callback"); return true }); err != nil {
					return err
				}
				if err := walk(c, depth+len(label)); err != nil {
					return err
				}
				if string(label) != read {
					return fmt.Errorf("the label above %v changed during the walk below it", c)
				}
				return nil
			})
		}
		check(t, walk(idx.Root(), 0), nil)
	})
	t.Run("callback error", func(t *testing.T) {
		boom := errors.New("boom")
		err := idx.VisitChildren(idx.Root(), 0, func(c core.NodeRef, label []byte) error {
			_ = label[0]
			noPin(t, "after reading a label")
			return boom
		})
		check(t, err, boom)
	})
	t.Run("cancelled mid-edge", func(t *testing.T) {
		for n := int64(1); n <= 4; n++ {
			o := opts
			ctx := &cancelAfter{Context: context.Background(), pool: pool, n: n}
			o.Context = ctx
			_, err := core.SearchAll(idx, queries[0], o)
			check(t, err, context.Canceled)
			if ctx.pinned != 0 {
				t.Fatalf("%d pages pinned at poll %d, where the search saw the cancellation", ctx.pinned, n)
			}
		}
	})
	t.Run("fill error", func(t *testing.T) {
		defer faultpoint.Reset()
		if err := pool.Clear(); err != nil {
			t.Fatal(err)
		}
		faultpoint.Enable(faultpoint.SitePoolFill, faultpoint.Spec{Mode: faultpoint.ModeError, After: 25})
		_, err := core.SearchAll(idx, queries[0], opts)
		check(t, err, faultpoint.ErrInjected)
	})
}
