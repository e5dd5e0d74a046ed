package engine

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// collectStream runs one query through Search and returns its hit stream.
func collectStream(t testing.TB, eng *Engine, q Query) []core.Hit {
	t.Helper()
	var hits []core.Hit
	if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
		hits = append(hits, h)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return hits
}

// requireSameHitSet asserts two streams report the same (sequence, score)
// multiset in decreasing score order.  Multi-shard engines may interleave
// equal-score hits differently between runs, so this is the strongest
// cross-engine guarantee; see requireIdenticalStream for the replay case.
func requireSameHitSet(t testing.TB, label string, got, want []core.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	wantSet := map[[2]int]int{}
	for _, h := range want {
		wantSet[[2]int{h.SeqIndex, h.Score}]++
	}
	for i, h := range got {
		if i > 0 && h.Score > got[i-1].Score {
			t.Fatalf("%s: score order violated at %d", label, i)
		}
		k := [2]int{h.SeqIndex, h.Score}
		if wantSet[k] == 0 {
			t.Fatalf("%s: unexpected hit %+v", label, h)
		}
		wantSet[k]--
	}
}

// requireIdenticalStream asserts byte-identical hit streams (every Hit field,
// including Rank and EValue).
func requireIdenticalStream(t testing.TB, label string, got, want []core.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: hit %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// cacheTestQueries builds a query mix with duplicates and varied options
// (top-k truncation, E-values) so the cache's truncation and key rules all
// get exercised.
func cacheTestQueries(t testing.TB, rng *rand.Rand, scheme score.Scheme, n int) []Query {
	t.Helper()
	ka, err := score.Params(scheme.Matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	letters := seq.Protein.Letters()
	uniq := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		qb := make([]byte, 6+rng.Intn(10))
		for j := range qb {
			qb[j] = letters[rng.Intn(len(letters))]
		}
		opts := core.Options{Scheme: scheme, MinScore: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			opts.KA = &ka
		}
		if rng.Intn(3) == 0 {
			opts.MaxResults = 1 + rng.Intn(4)
		}
		uniq = append(uniq, Query{ID: fmt.Sprintf("q%d", i), Residues: seq.Protein.MustEncode(string(qb)), Options: opts})
	}
	// Interleave duplicates so roughly half the stream repeats.
	out := make([]Query, 0, 2*n)
	for i, q := range uniq {
		out = append(out, q)
		out = append(out, uniq[rng.Intn(i+1)])
	}
	return out
}

// TestCacheOnOffEquivalence is the headline correctness property of the
// result cache: over random workloads with ~50% duplicate queries, an engine
// with the cache enabled must produce, query for query, the same hit streams
// as an identically configured engine without it — across in-memory engines
// in both partition modes and disk-backed (IndexDir) engines — and repeats
// of a query on the cached engine must replay byte-identically.
func TestCacheOnOffEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	configs := []struct {
		name   string
		shards int
		prefix bool
		disk   bool
	}{
		{"memory/seq/1", 1, false, false},
		{"memory/seq/3", 3, false, false},
		{"memory/prefix/3", 3, true, false},
		{"disk/seq/2", 2, false, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			db := randomEngineDB(t, rng, seq.Protein, 12+rng.Intn(12), 70)
			queries := cacheTestQueries(t, rng, scheme, 8)

			newEng := func(cacheBytes int64) *Engine {
				var eng *Engine
				var err error
				if cfg.disk {
					dir := filepath.Join(t.TempDir(), "idx")
					if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: cfg.shards}); err != nil {
						t.Fatal(err)
					}
					eng, err = New(nil, Options{IndexDir: dir, CacheBytes: cacheBytes})
				} else {
					eng, err = newMemoryEngine(db, cfg.prefix, Options{Shards: cfg.shards, CacheBytes: cacheBytes})
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = eng.Close() })
				return eng
			}
			engOff := newEng(0)
			engOn := newEng(8 << 20)

			for qi, q := range queries {
				want := collectStream(t, engOff, q)
				got := collectStream(t, engOn, q)
				label := fmt.Sprintf("%s query %d (%s)", cfg.name, qi, q.ID)
				if cfg.shards == 1 {
					// Single-shard streams are fully deterministic, so
					// cache-on must be byte-identical to cache-off.
					requireIdenticalStream(t, label, got, want)
				} else {
					requireSameHitSet(t, label, got, want)
				}
				// Replays of the same query on the cached engine must be
				// byte-identical to what it served the first time.
				requireIdenticalStream(t, label+" replay", collectStream(t, engOn, q), got)
			}
			m := engOn.Metrics()
			if m.Cache == nil {
				t.Fatal("cache-enabled engine reports no cache metrics")
			}
			if m.Cache.Hits == 0 {
				t.Fatalf("duplicate-heavy workload produced no cache hits: %+v", *m.Cache)
			}
			if off := engOff.Metrics(); off.Cache != nil {
				t.Fatal("cache-disabled engine reports cache metrics")
			}
		})
	}
}

// TestCacheMaxResultsTruncation checks the completeness rules end to end: a
// top-k query must never be served a stream the cache cannot prove covers k,
// and replays must truncate exactly like live searches.
func TestCacheMaxResultsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 24, 80)
	eng, err := New(db, Options{Shards: 1, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := Query{Residues: seq.Protein.MustEncode("DKDGDGTITTKE"), Options: core.Options{Scheme: scheme, MinScore: 3}}
	all := collectStream(t, eng, base) // populates a complete entry
	if len(all) < 3 {
		t.Skipf("workload yields only %d hits; need >= 3", len(all))
	}
	for k := 1; k <= len(all); k++ {
		topQ := base
		topQ.Options.MaxResults = k
		requireIdenticalStream(t, fmt.Sprintf("top-%d from complete entry", k), collectStream(t, eng, topQ), all[:k])
	}

	// A fresh engine whose first sighting is truncated must serve smaller k
	// from the incomplete entry but re-run for larger k.
	eng2, err := New(db, Options{Shards: 1, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	top2 := base
	top2.Options.MaxResults = 2
	first := collectStream(t, eng2, top2)
	requireIdenticalStream(t, "truncated first sighting", first, all[:2])
	top1 := base
	top1.Options.MaxResults = 1
	requireIdenticalStream(t, "smaller k from incomplete entry", collectStream(t, eng2, top1), all[:1])
	hitsBefore := eng2.Metrics().Cache.Hits
	if hitsBefore == 0 {
		t.Fatal("smaller-k request did not hit the incomplete entry")
	}
	requireIdenticalStream(t, "larger k re-runs", collectStream(t, eng2, base), all)
	if got := collectStream(t, eng2, top2); len(got) != 2 {
		t.Fatalf("top-2 after upgrade returned %d hits", len(got))
	}
}

// TestCacheOversizedStreamNotBuffered pins the oversized-stream guard: a hit
// stream bigger than the largest entry the cache can hold is never inserted
// (and the leader stops buffering it mid-flight), while the stream itself
// still reaches the client complete and correct.
func TestCacheOversizedStreamNotBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 40, 80)
	// A cache this small cannot hold any multi-hit stream (per-stripe
	// budget is CacheBytes/16, under a single Hit's footprint).
	eng, err := New(db, Options{Shards: 1, CacheBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := Query{Residues: seq.Protein.MustEncode("DKDGDGTITTKE"), Options: core.Options{Scheme: scheme, MinScore: 1}}
	first := collectStream(t, eng, q)
	if len(first) < 2 {
		t.Skipf("workload yields only %d hits", len(first))
	}
	second := collectStream(t, eng, q)
	requireIdenticalStream(t, "uncacheable stream re-run", second, first)
	cs := eng.Metrics().Cache
	if cs.Insertions != 0 || cs.Hits != 0 {
		t.Fatalf("oversized streams were cached: %+v", *cs)
	}
}

// TestSingleFlightConcurrentIdenticalQueries launches many goroutines on the
// same query at once: every stream must be byte-identical, and the flight
// table must have collapsed the duplicates (at most a few DP sweeps, the
// rest replays or waits).  CI runs this package under -race.
func TestSingleFlightConcurrentIdenticalQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 30, 100)
	eng, err := New(db, Options{Shards: 2, CacheBytes: 8 << 20, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := Query{Residues: seq.Protein.MustEncode("DKDGDGTITTKELGTV"), Options: core.Options{Scheme: scheme, MinScore: 5}}

	const goroutines = 16
	streams := make([][]core.Hit, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var hits []core.Hit
			if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
				hits = append(hits, h)
				return true
			}); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			streams[g] = hits
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		requireIdenticalStream(t, fmt.Sprintf("goroutine %d vs 0", g), streams[g], streams[0])
	}
	cs := eng.Metrics().Cache
	if cs == nil {
		t.Fatal("no cache metrics")
	}
	if cs.Hits+cs.FlightWaits < goroutines-1 {
		t.Fatalf("duplicates were not collapsed: %+v", *cs)
	}
	if cs.Insertions == 0 {
		t.Fatalf("leader inserted nothing: %+v", *cs)
	}
}
