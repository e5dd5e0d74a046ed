package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/shard"
)

func randomEngineDB(t testing.TB, rng *rand.Rand, a *seq.Alphabet, nSeqs, maxLen int) *seq.Database {
	t.Helper()
	letters := a.Letters()
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	motif := randStr(6 + rng.Intn(10))
	strs := make([]string, nSeqs)
	for i := range strs {
		s := randStr(1 + rng.Intn(maxLen))
		if rng.Intn(2) == 0 {
			pos := rng.Intn(len(s) + 1)
			s = s[:pos] + motif + s[pos:]
		}
		strs[i] = s
	}
	db, err := seq.DatabaseFromStrings(a, strs...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// openShardView opens an index directory the way a shard server does: the
// directory, then a shard engine over its handles, with no warm engine (and no
// writer) on top.
func openShardView(path string) (*shard.Engine, error) {
	dir, err := diskst.OpenDir(path, 0, false)
	if err != nil {
		return nil, err
	}
	return shard.OpenDiskEngine(dir)
}

// newMemoryEngine builds a mutable in-memory engine as New does, except that
// byPrefix builds its base through the deprecated shard.Options.Partition,
// which NewEngine ignores: the rows that set it check that the field the
// benchmark's shard ladder still sets yields the same sequence-partitioned
// engine.
func newMemoryEngine(db *seq.Database, byPrefix bool, opts Options) (*Engine, error) {
	if !byPrefix {
		return New(db, opts)
	}
	base, err := shard.NewEngine(db, shard.Options{Shards: opts.Shards, Partition: shard.PartitionByPrefix})
	if err != nil {
		return nil, err
	}
	return newWarm(base, nil, opts, false)
}

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
// equal-score ties differently from a single index, so this is the strongest
// cross-layout guarantee; see requireIdenticalStream for one engine's repeats.
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

// variedQueries builds a query mix with duplicates and varied options
// (top-k truncation, E-values).
func variedQueries(t testing.TB, rng *rand.Rand, scheme score.Scheme, n int) []Query {
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

func randomQueries(rng *rand.Rand, a *seq.Alphabet, n int, scheme score.Scheme) []Query {
	letters := a.Letters()
	out := make([]Query, n)
	for i := range out {
		qb := make([]byte, 4+rng.Intn(14))
		for j := range qb {
			qb[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = Query{
			ID:       string(rune('a' + i%26)),
			Residues: a.MustEncode(string(qb)),
			Options:  core.Options{Scheme: scheme, MinScore: 1 + rng.Intn(10)},
		}
	}
	return out
}

// collectBatch drains a batch stream into per-query hit slices and Done
// results, asserting every query produces exactly one Done event.
func collectBatch(t testing.TB, n int, results <-chan Result) ([][]core.Hit, []Result) {
	t.Helper()
	hits := make([][]core.Hit, n)
	dones := make([]Result, n)
	seen := make([]bool, n)
	for r := range results {
		if r.Index < 0 || r.Index >= n {
			t.Fatalf("result index %d out of range", r.Index)
		}
		if r.Done {
			if seen[r.Index] {
				t.Fatalf("query %d produced two Done events", r.Index)
			}
			seen[r.Index] = true
			dones[r.Index] = r
			continue
		}
		if seen[r.Index] {
			t.Fatalf("query %d produced a hit after Done", r.Index)
		}
		hits[r.Index] = append(hits[r.Index], r.Hit)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("query %d produced no Done event", i)
		}
	}
	return hits, dones
}

// TestSubmitBatchMatchesSequential is the batch-vs-sequential equivalence
// property: a batch multiplexed over the warm engine must deliver, for every
// query, exactly the hits the single-index search reports, in decreasing
// score order.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for trial := 0; trial < 10; trial++ {
		db := randomEngineDB(t, rng, seq.Protein, 4+rng.Intn(24), 80)
		queries := randomQueries(rng, seq.Protein, 3+rng.Intn(8), scheme)

		single, err := core.BuildMemoryIndex(db)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(db, Options{Shards: 1 + rng.Intn(4), BatchWorkers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}

		hits, dones := collectBatch(t, len(queries), eng.SubmitBatch(context.Background(), queries))
		for qi, q := range queries {
			want, err := core.SearchAll(single, q.Residues, q.Options)
			if err != nil {
				t.Fatal(err)
			}
			got := hits[qi]
			if dones[qi].Err != nil {
				t.Fatalf("trial %d query %d: unexpected error %v", trial, qi, dones[qi].Err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d: %d hits, want %d", trial, qi, len(got), len(want))
			}
			seen := map[int]bool{}
			for i, h := range got {
				if i > 0 && h.Score > got[i-1].Score {
					t.Fatalf("trial %d query %d: score order violated at %d", trial, qi, i)
				}
				if h.Score != want[i].Score {
					t.Fatalf("trial %d query %d: score %d at %d, want %d", trial, qi, h.Score, i, want[i].Score)
				}
				if seen[h.SeqIndex] {
					t.Fatalf("trial %d query %d: sequence %d reported twice", trial, qi, h.SeqIndex)
				}
				seen[h.SeqIndex] = true
			}
			if dones[qi].Stats.SequencesReported != int64(len(got)) {
				t.Fatalf("trial %d query %d: Done stats report %d sequences, stream had %d",
					trial, qi, dones[qi].Stats.SequencesReported, len(got))
			}
		}
		st, served, reported := eng.Stats()
		if served != int64(len(queries)) {
			t.Fatalf("trial %d: engine served %d queries, want %d", trial, served, len(queries))
		}
		var total int64
		for _, h := range hits {
			total += int64(len(h))
		}
		if reported != total {
			t.Fatalf("trial %d: engine counted %d hits, stream had %d", trial, reported, total)
		}
		if total > 0 && st.NodesExpanded == 0 {
			t.Fatalf("trial %d: engine stats lost work counters", trial)
		}
	}
}

// TestSubmitBatchCancellation cancels the context mid-stream and verifies the
// stream terminates (channel closes) with every Done event accounted for.
func TestSubmitBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 30, 120)
	queries := randomQueries(rng, seq.Protein, 12, scheme)
	eng, err := New(db, Options{Shards: 4, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.resultBuffer = 1
	ctx, cancel := context.WithCancel(context.Background())
	results := eng.SubmitBatch(ctx, queries)
	n := 0
	for r := range results {
		n++
		if n == 3 {
			cancel()
		}
		_ = r
	}
	cancel()
	// The engine must be reusable after a cancelled batch.
	hits, dones := collectBatch(t, len(queries), eng.SubmitBatch(context.Background(), queries))
	for i := range dones {
		if dones[i].Err != nil {
			t.Fatalf("post-cancel query %d failed: %v", i, dones[i].Err)
		}
	}
	_ = hits
}

// TestEngineSearchTopKAndStop exercises the single-query path: MaxResults
// truncation and report-callback cancellation on a warm engine.
func TestEngineSearchTopKAndStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 20, 100)
	eng, err := New(db, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Residues: seq.Protein.MustEncode("DKDGDGTITTKE"), Options: core.Options{Scheme: scheme, MinScore: 5}}

	var all []core.Hit
	if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
		all = append(all, h)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) > 1 {
		topQ := q
		topQ.Options.MaxResults = 1
		var top []core.Hit
		if _, err := eng.Search(context.Background(), topQ, func(h core.Hit) bool {
			top = append(top, h)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top[0].Score != all[0].Score {
			t.Fatalf("top-1 = %+v, want score %d", top, all[0].Score)
		}
		var stopped []core.Hit
		if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
			stopped = append(stopped, h)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if len(stopped) != 1 {
			t.Fatalf("stop-after-first streamed %d hits", len(stopped))
		}
	}
}

// TestCacheMaxResultsTruncation checks top-k truncation end to end: every
// top-k search must stream exactly the first k hits of the full stream,
// whatever the engine served before — a complete stream first, or a
// truncated one and then larger k.  The name dates from the removed result
// cache, which served repeats from complete or truncated entries; the
// engine now keeps nothing between queries, and this pins that no earlier
// search changes what a later one streams.
func TestCacheMaxResultsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 24, 80)
	eng, err := New(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := Query{Residues: seq.Protein.MustEncode("DKDGDGTITTKE"), Options: core.Options{Scheme: scheme, MinScore: 3}}
	all := collectStream(t, eng, base)
	if len(all) < 3 {
		t.Fatalf("workload yields only %d hits; need >= 3", len(all))
	}
	for k := 1; k <= len(all); k++ {
		topQ := base
		topQ.Options.MaxResults = k
		requireIdenticalStream(t, fmt.Sprintf("top-%d after the full stream", k), collectStream(t, eng, topQ), all[:k])
	}

	// A fresh engine whose first search is truncated must stream smaller
	// and larger k exactly as the live full stream does.
	eng2, err := New(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	top2 := base
	top2.Options.MaxResults = 2
	requireIdenticalStream(t, "truncated first search", collectStream(t, eng2, top2), all[:2])
	top1 := base
	top1.Options.MaxResults = 1
	requireIdenticalStream(t, "smaller k after a truncated search", collectStream(t, eng2, top1), all[:1])
	requireIdenticalStream(t, "full stream after truncated searches", collectStream(t, eng2, base), all)
	requireIdenticalStream(t, "top-2 after the full stream", collectStream(t, eng2, top2), all[:2])
}

// TestCloseConcurrentWithSearch races Close against starting searches: every
// search must either run to completion before Close returns or fail with
// ErrClosed — never start after Close has returned.
func TestCloseConcurrentWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 10, 60)
	q := Query{Residues: seq.Protein.MustEncode("ACDEFG"), Options: core.Options{Scheme: scheme, MinScore: 3}}
	for trial := 0; trial < 50; trial++ {
		eng, err := New(db, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var closed atomic.Bool
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := eng.Search(context.Background(), q, func(core.Hit) bool {
					if closed.Load() {
						t.Error("search running after Close returned")
					}
					return true
				})
				if err != nil && err != ErrClosed {
					t.Errorf("search error: %v", err)
				}
			}()
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		wg.Wait()
	}
}

// TestEngineClose verifies submissions after Close fail with ErrClosed, as a
// Done event on the batch path.
func TestEngineClose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 6, 40)
	eng, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	q := Query{Residues: seq.Protein.MustEncode("ACDE"), Options: core.Options{Scheme: scheme, MinScore: 1}}
	if _, err := eng.Search(context.Background(), q, func(core.Hit) bool { return true }); err != ErrClosed {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
	_, dones := collectBatch(t, 1, eng.SubmitBatch(context.Background(), []Query{q}))
	if dones[0].Err != ErrClosed {
		t.Fatalf("batch after Close = %v, want ErrClosed", dones[0].Err)
	}
}

// TestPrefixEngineBatchAndMetrics drives a 4-shard warm engine, built through
// the deprecated partition field (newMemoryEngine), through SubmitBatch and checks the metrics snapshot: per-query hit streams
// must match the sequential search (as (sequence, score) sets), and Metrics
// must report one active-search entry per shard, all idle after the batch
// drains, with scratch reuse on the second batch.
func TestPrefixEngineBatchAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	db := randomEngineDB(t, rng, seq.DNA, 24, 80)
	scheme := score.MustScheme(score.UnitDNA(), -1)
	eng, err := newMemoryEngine(db, true, Options{Shards: 4, BatchWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.NumShards() != 4 {
		t.Fatalf("got %d shards, want 4", eng.NumShards())
	}

	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomQueries(rng, seq.DNA, 8, scheme)
	for round := 0; round < 2; round++ {
		hits, dones := collectBatch(t, len(queries), eng.SubmitBatch(context.Background(), queries))
		for i, q := range queries {
			want, err := core.SearchAll(single, q.Residues, q.Options)
			if err != nil {
				t.Fatal(err)
			}
			if len(hits[i]) != len(want) {
				t.Fatalf("round %d query %d: %d hits, sequential %d", round, i, len(hits[i]), len(want))
			}
			wantSet := map[[2]int]int{}
			for _, h := range want {
				wantSet[[2]int{h.SeqIndex, h.Score}]++
			}
			for j, h := range hits[i] {
				if j > 0 && h.Score > hits[i][j-1].Score {
					t.Fatalf("round %d query %d: score order violated", round, i)
				}
				k := [2]int{h.SeqIndex, h.Score}
				if wantSet[k] == 0 {
					t.Fatalf("round %d query %d: hit %+v not in sequential results", round, i, h)
				}
				wantSet[k]--
			}
			if dones[i].Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, dones[i].Err)
			}
		}
	}

	m := eng.Metrics()
	if len(m.Shards) != 4 {
		t.Fatalf("metrics list %d shards, want 4", len(m.Shards))
	}
	for _, sh := range m.Shards {
		if sh.Active != 0 {
			t.Fatalf("idle engine reports busy shard: %+v", sh)
		}
	}
	if m.Scratch.Gets == 0 || m.Scratch.Reuses == 0 {
		t.Fatalf("warm engine shows no scratch reuse: %+v", m.Scratch)
	}
}
