package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
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
// so the same top-k query could return different sequences run to run.  The
// (sequence, score) multiset must now be identical across repeats.
func TestShardedTopKDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for trial := 0; trial < 3; trial++ {
		db := randomEngineDB(t, rng, seq.Protein, 12+rng.Intn(12), 70)
		queries := variedQueries(t, rng, scheme, 6)
		eng, err := New(db, Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			base := hitMultiset(t, eng, q)
			for rep := 0; rep < 8; rep++ {
				got := hitMultiset(t, eng, q)
				if len(got) != len(base) {
					t.Fatalf("trial %d query %d rep %d: %d distinct hits, want %d",
						trial, qi, rep, len(got), len(base))
				}
				for k, n := range base {
					if got[k] != n {
						t.Fatalf("trial %d query %d rep %d: hit multiset changed at seq=%d score=%d (%d vs %d)",
							trial, qi, rep, k[0], k[1], got[k], n)
					}
				}
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
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

// TestSearchObservesCancelWithoutHits pins the check a query makes before it
// starts: with its context already cancelled it returns context.Canceled
// having run nothing — no hits, and not one cell computed by any stream.
// Cancellation from inside a running sweep is TestSearchObservesCancelMidSweep.
func TestSearchObservesCancelWithoutHits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 300, 200)
	eng, err := New(db, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := Query{
		Residues: seq.Protein.MustEncode("DKDGDGTITTKELGTVMRSL"),
		Options:  core.Options{Scheme: scheme, MinScore: 5},
	}
	if _, err := eng.Search(context.Background(), q, func(core.Hit) bool { return true }); err != nil {
		t.Fatal(err)
	}
	baseline, _, _ := eng.Stats()
	if baseline.CellsComputed == 0 {
		t.Fatal("baseline search did no work; workload broken")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits := 0
	_, err = eng.Search(ctx, q, func(core.Hit) bool { hits++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if hits != 0 {
		t.Fatalf("cancelled search still delivered %d hits", hits)
	}
	after, _, _ := eng.Stats()
	if cancelledCells := after.CellsComputed - baseline.CellsComputed; cancelledCells != 0 {
		t.Fatalf("cancelled search computed %d cells, want 0", cancelledCells)
	}
}

// TestSearchObservesCancelMidSweep pins cancellation from inside each
// stream's DP sweep (core's periodic poll).  The context is cancelled once
// the query's streams are launched, while each stream stalls at the
// shard-worker faultpoint, so the check before the streams start cannot see
// it; the query is hit-less, so no hit callback can see it either.  Each
// stream must stop within one poll interval of columns.
func TestSearchObservesCancelMidSweep(t *testing.T) {
	const pollColumns = 256 // core's cancellation poll interval
	const stall = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(29))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 300, 200)
	residues := seq.Protein.MustEncode("DKDGDGTITTKELGTVMRSL")
	defer faultpoint.Reset()
	eng, err := New(db, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// MinScore one above the best hit makes the sweep hit-less.
	top := 0
	if _, err := eng.Search(context.Background(), Query{Residues: residues, Options: core.Options{Scheme: scheme, MinScore: 1}},
		func(h core.Hit) bool { top = h.Score; return false }); err != nil {
		t.Fatal(err)
	}
	q := Query{Residues: residues, Options: core.Options{Scheme: scheme, MinScore: top + 1}}
	hits := 0
	count := func(core.Hit) bool { hits++; return true }
	full, err := eng.Search(context.Background(), q, count)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("hit-less query reported %d hits", hits)
	}

	faultpoint.Enable(faultpoint.SiteShardWorker, faultpoint.Spec{Mode: faultpoint.ModeLatency, Delay: stall})
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		st  core.Stats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := eng.Search(ctx, q, count)
		done <- outcome{st, err}
	}()
	for faultpoint.Fired(faultpoint.SiteShardWorker) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	r := <-done
	streams := faultpoint.Fired(faultpoint.SiteShardWorker)
	faultpoint.Reset()
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("search cancelled mid-flight returned %v, want context.Canceled", r.err)
	}
	if hits != 0 {
		t.Fatalf("cancelled search delivered %d hits", hits)
	}
	limit := streams * pollColumns
	if full.ColumnsExpanded <= 2*limit {
		t.Fatalf("the full run's streams expand only %d columns; workload too small", full.ColumnsExpanded)
	}
	if r.st.ColumnsExpanded > limit {
		t.Fatalf("%d cancelled streams expanded %d columns, want <= %d (full run: %d)",
			streams, r.st.ColumnsExpanded, limit, full.ColumnsExpanded)
	}
}
