package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestSubmitBatchBoundedGoroutines pins the goroutine-burst fix: SubmitBatch
// used to spawn one goroutine per query BEFORE acquiring a worker slot, so a
// large batch burst len(queries) goroutines at once.  The worker-pool
// implementation must keep in-flight goroutine growth near BatchWorkers no
// matter the batch size.
func TestSubmitBatchBoundedGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 4, 30)
	eng, err := New(db, Options{Shards: 1, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.resultBuffer = 1
	defer eng.Close()
	q := Query{Residues: seq.Protein.MustEncode("ACDEFGHIK"), Options: core.Options{Scheme: scheme, MinScore: 1}}
	queries := make([]Query, 5000)
	for i := range queries {
		queries[i] = q
	}

	before := runtime.NumGoroutine()
	results := eng.SubmitBatch(context.Background(), queries)
	// Nobody drains yet and resultBuffer is 1, so the batch is pinned
	// in-flight while we sample; give any (buggy) per-query spawning ample
	// time to happen.
	time.Sleep(100 * time.Millisecond)
	during := runtime.NumGoroutine()
	for range results {
	}
	if grown := during - before; grown > 50 {
		t.Fatalf("SubmitBatch grew goroutines by %d during a %d-query batch, want <= 50 (BatchWorkers=4)",
			grown, len(queries))
	}
}

// TestShardedTopKDeterministic pins the merger's strict release rule: with a
// >= release the interleaving of equal-score ties — and, under MaxResults
// truncation, WHICH tie made the cut — depended on shard goroutine timing,
// so the same top-k query could return different sequences run to run (and
// the result cache would then freeze one arbitrary outcome).  The (sequence,
// score) multiset must now be identical across repeats, in both partition
// modes.
func TestShardedTopKDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for _, prefix := range []bool{false, true} {
		for trial := 0; trial < 3; trial++ {
			db := randomEngineDB(t, rng, seq.Protein, 12+rng.Intn(12), 70)
			queries := cacheTestQueries(t, rng, scheme, 6)
			eng, err := newMemoryEngine(db, prefix, Options{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				base := hitMultiset(t, eng, q)
				for rep := 0; rep < 8; rep++ {
					got := hitMultiset(t, eng, q)
					if len(got) != len(base) {
						t.Fatalf("prefix=%v trial %d query %d rep %d: %d distinct hits, want %d",
							prefix, trial, qi, rep, len(got), len(base))
					}
					for k, n := range base {
						if got[k] != n {
							t.Fatalf("prefix=%v trial %d query %d rep %d: hit multiset changed at seq=%d score=%d (%d vs %d)",
								prefix, trial, qi, rep, k[0], k[1], got[k], n)
						}
					}
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func hitMultiset(t *testing.T, eng *Engine, q Query) map[[2]int]int {
	t.Helper()
	m := map[[2]int]int{}
	if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
		m[[2]int{h.SeqIndex, h.Score}]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSearchObservesCancelWithoutHits pins the hit-less cancellation fix at
// the engine level: a pre-cancelled context must abort the search from
// inside the DP sweep (core's periodic poll) rather than running the whole
// query and only noticing at the end.
func TestSearchObservesCancelWithoutHits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 300, 200)
	for _, prefix := range []bool{false, true} {
		eng, err := newMemoryEngine(db, prefix, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{
			Residues: seq.Protein.MustEncode("DKDGDGTITTKELGTVMRSL"),
			Options:  core.Options{Scheme: scheme, MinScore: 5},
		}
		var baseline core.Stats
		if _, err := eng.Search(context.Background(), q, func(core.Hit) bool { return true }); err != nil {
			t.Fatal(err)
		}
		baseline, _, _ = eng.Stats()
		if baseline.CellsComputed == 0 {
			t.Fatal("baseline search did no work; workload broken")
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		hits := 0
		_, err = eng.Search(ctx, q, func(core.Hit) bool { hits++; return true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("prefix=%v: cancelled search returned %v, want context.Canceled", prefix, err)
		}
		if hits != 0 {
			t.Fatalf("prefix=%v: cancelled search still delivered %d hits", prefix, hits)
		}
		after, _, _ := eng.Stats()
		if cancelledCells := after.CellsComputed - baseline.CellsComputed; cancelledCells*10 > baseline.CellsComputed {
			t.Fatalf("prefix=%v: cancelled search computed %d cells, over 10%% of the %d-cell baseline",
				prefix, cancelledCells, baseline.CellsComputed)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
