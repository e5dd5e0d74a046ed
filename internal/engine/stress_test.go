package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestStressConcurrentBatchesWithCancellation hammers one warm engine from
// many goroutines — overlapping batches, mid-stream cancellation at random
// points, single-query searches racing them — to exercise the scratch-reuse
// paths under the race detector (CI runs this package with -race).  Every
// surviving stream must still be per-query decreasing-score.
func TestStressConcurrentBatchesWithCancellation(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	setup := rand.New(rand.NewSource(1309))
	db := randomEngineDB(t, setup, seq.Protein, 40, 120)
	eng, err := New(db, Options{Shards: 4, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.resultBuffer = 4
	queries := randomQueries(setup, seq.Protein, 10, scheme)

	iters := 12
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for it := 0; it < iters; it++ {
				switch g % 3 {
				case 0: // full drain: verify per-query score order end to end
					last := make(map[int]int)
					for r := range eng.SubmitBatch(context.Background(), queries) {
						if r.Done {
							if r.Err != nil {
								t.Errorf("goroutine %d: query %d failed: %v", g, r.Index, r.Err)
							}
							continue
						}
						if prev, ok := last[r.Index]; ok && r.Hit.Score > prev {
							t.Errorf("goroutine %d: query %d score order violated: %d after %d",
								g, r.Index, r.Hit.Score, prev)
						}
						last[r.Index] = r.Hit.Score
					}
				case 1: // cancel mid-stream at a random point, keep draining
					ctx, cancel := context.WithCancel(context.Background())
					stopAfter := 1 + rng.Intn(20)
					n := 0
					for r := range eng.SubmitBatch(ctx, queries) {
						n++
						if n == stopAfter {
							cancel()
						}
						_ = r
					}
					cancel()
				case 2: // single-query searches racing the batches
					q := queries[rng.Intn(len(queries))]
					prev := int(^uint(0) >> 1)
					if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
						if h.Score > prev {
							t.Errorf("goroutine %d: single-query score order violated", g)
						}
						prev = h.Score
						return rng.Intn(8) != 0 // occasionally stop early
					}); err != nil {
						t.Errorf("goroutine %d: search failed: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The engine must still answer correctly after the storm.
	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:3] {
		want, err := core.SearchAll(single, q.Residues, q.Options)
		if err != nil {
			t.Fatal(err)
		}
		var got []core.Hit
		if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
			got = append(got, h)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("post-stress: %d hits, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("post-stress: score %d at %d, want %d", got[i].Score, i, want[i].Score)
			}
		}
	}
}

// TestStressSingleFlightConcurrentDuplicates hammers a CACHED engine with a
// tiny query set from many goroutines — concurrent identical queries racing
// through the single-flight path, batches of pure duplicates, mid-stream
// cancellation, early stops — to exercise the leader/waiter handoff and
// entry replay under the race detector (CI runs this package with -race).
func TestStressSingleFlightConcurrentDuplicates(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	setup := rand.New(rand.NewSource(97))
	db := randomEngineDB(t, setup, seq.Protein, 40, 120)
	eng, err := New(db, Options{Shards: 4, BatchWorkers: 4, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng.resultBuffer = 4
	defer eng.Close()
	// Three queries only: nearly every concurrent operation collides on a
	// key, so the flight table and the replay path stay saturated.
	queries := randomQueries(setup, seq.Protein, 3, scheme)

	iters := 10
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*104729 + 7))
			for it := 0; it < iters; it++ {
				switch g % 3 {
				case 0: // duplicate-only batch, fully drained
					batch := make([]Query, 6)
					for i := range batch {
						batch[i] = queries[rng.Intn(len(queries))]
					}
					last := make(map[int]int)
					for r := range eng.SubmitBatch(context.Background(), batch) {
						if r.Done {
							if r.Err != nil {
								t.Errorf("goroutine %d: %v", g, r.Err)
							}
							continue
						}
						if prev, ok := last[r.Index]; ok && r.Hit.Score > prev {
							t.Errorf("goroutine %d: score order violated", g)
						}
						last[r.Index] = r.Hit.Score
					}
				case 1: // concurrent identical single queries, occasional early stop
					q := queries[rng.Intn(len(queries))]
					prev := int(^uint(0) >> 1)
					if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
						if h.Score > prev {
							t.Errorf("goroutine %d: score order violated", g)
						}
						prev = h.Score
						return rng.Intn(6) != 0
					}); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
					}
				case 2: // cancellation racing the flight table
					ctx, cancel := context.WithCancel(context.Background())
					n := 0
					stopAfter := 1 + rng.Intn(10)
					for r := range eng.SubmitBatch(ctx, []Query{queries[rng.Intn(len(queries))]}) {
						n++
						if n == stopAfter {
							cancel()
						}
						_ = r
					}
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()

	cs := eng.Metrics().Cache
	if cs == nil || cs.Hits == 0 {
		t.Fatalf("duplicate stress produced no cache hits: %+v", cs)
	}
	// The cache must still serve correct streams after the storm.
	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := core.SearchAll(single, q.Residues, q.Options)
		if err != nil {
			t.Fatal(err)
		}
		var got []core.Hit
		if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
			got = append(got, h)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("post-stress cached stream has %d hits, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("post-stress: score %d at %d, want %d", got[i].Score, i, want[i].Score)
			}
		}
	}
}
