package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

func randomShardDB(t *testing.T, rng *rand.Rand, a *seq.Alphabet, nSeqs, maxLen int) *seq.Database {
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

type hitKey struct {
	seqIndex int
	seqID    string
	score    int
	eValue   float64
}

func keyOf(h core.Hit) hitKey {
	return hitKey{seqIndex: h.SeqIndex, seqID: h.SeqID, score: h.Score, eValue: h.EValue}
}

func multiset(hits []core.Hit) map[hitKey]int {
	m := map[hitKey]int{}
	for _, h := range hits {
		m[keyOf(h)]++
	}
	return m
}

func checkOrderAndRanks(t *testing.T, hits []core.Hit, label string) {
	t.Helper()
	for i, h := range hits {
		if h.Rank != i+1 {
			t.Fatalf("%s: hit %d has rank %d, want %d", label, i, h.Rank, i+1)
		}
		if i > 0 && h.Score > hits[i-1].Score {
			t.Fatalf("%s: score order violated at %d: %d after %d", label, i, h.Score, hits[i-1].Score)
		}
	}
}

// TestShardedEquivalenceProperty is the randomized shard-vs-single
// equivalence property: across random databases, queries, shard
// counts, MinScore thresholds, MaxResults limits and early cancellation, the
// sharded engine must report the same sequences with the same scores in
// globally non-increasing score order as the single-index search.
func TestShardedEquivalenceProperty(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1309))
			letters := cfg.a.Letters()
			for trial := 0; trial < 40; trial++ {
				db := randomShardDB(t, rng, cfg.a, 2+rng.Intn(30), 90)
				qb := make([]byte, 3+rng.Intn(16))
				for i := range qb {
					qb[i] = letters[rng.Intn(len(letters))]
				}
				query := cfg.a.MustEncode(string(qb))
				minScore := 1 + rng.Intn(12)
				var ka *score.KarlinAltschul
				if params, err := score.Params(cfg.scheme.Matrix, nil); err == nil && rng.Intn(2) == 0 {
					ka = &params
				}
				opts := core.Options{Scheme: cfg.scheme, MinScore: minScore, KA: ka}

				single, err := core.BuildMemoryIndex(db)
				if err != nil {
					t.Fatal(err)
				}
				baseline, err := core.SearchAll(single, query, opts)
				if err != nil {
					t.Fatal(err)
				}

				engine, err := NewEngine(db, Options{Shards: 1 + rng.Intn(8)})
				if err != nil {
					t.Fatal(err)
				}

				// Full run: identical multiset, order, ranks, merged stats.
				var st core.Stats
				fullOpts := opts
				fullOpts.Stats = &st
				sharded, err := engine.SearchAll(query, fullOpts)
				if err != nil {
					t.Fatal(err)
				}
				checkOrderAndRanks(t, sharded, "sharded full")
				wantSet := multiset(baseline)
				gotSet := multiset(sharded)
				if len(sharded) != len(baseline) {
					t.Fatalf("trial %d (%d shards): sharded reported %d hits, single %d",
						trial, engine.NumShards(), len(sharded), len(baseline))
				}
				for k, n := range wantSet {
					if gotSet[k] != n {
						t.Fatalf("trial %d: hit %+v count mismatch: sharded %d, single %d", trial, k, gotSet[k], n)
					}
				}
				if st.SequencesReported != int64(len(sharded)) {
					t.Fatalf("trial %d: merged stats report %d sequences, emitted %d",
						trial, st.SequencesReported, len(sharded))
				}
				if len(sharded) > 0 && st.NodesExpanded == 0 {
					t.Fatalf("trial %d: merged stats lost shard work counters", trial)
				}

				// Top-k run: the score sequence must equal the baseline's
				// first k scores (ties may resolve to a different sequence,
				// but every reported hit must exist in the full result set).
				if len(baseline) > 1 {
					k := 1 + rng.Intn(len(baseline))
					topOpts := opts
					topOpts.MaxResults = k
					topK, err := engine.SearchAll(query, topOpts)
					if err != nil {
						t.Fatal(err)
					}
					checkTruncated(t, trial, "top-k", topK, baseline, k)
				}

				// Early cancel via the report callback.
				if len(baseline) > 0 {
					stop := 1 + rng.Intn(len(baseline))
					var got []core.Hit
					err := engine.Search(query, opts, func(h core.Hit) bool {
						got = append(got, h)
						return len(got) < stop
					})
					if err != nil {
						t.Fatal(err)
					}
					checkTruncated(t, trial, "early-cancel", got, baseline, stop)
				}
			}
		})
	}
}

// checkTruncated verifies a truncated sharded stream against the full
// single-index baseline: same length, same score sequence, every hit present
// in the full result set.
func checkTruncated(t *testing.T, trial int, label string, got, baseline []core.Hit, k int) {
	t.Helper()
	if k > len(baseline) {
		k = len(baseline)
	}
	if len(got) != k {
		t.Fatalf("trial %d %s: got %d hits, want %d", trial, label, len(got), k)
	}
	checkOrderAndRanks(t, got, label)
	valid := map[hitKey]int{}
	for _, h := range baseline {
		valid[keyOf(h)]++
	}
	for i, h := range got {
		if h.Score != baseline[i].Score {
			t.Fatalf("trial %d %s: score %d at position %d, baseline has %d", trial, label, h.Score, i, baseline[i].Score)
		}
		if valid[keyOf(h)] == 0 {
			t.Fatalf("trial %d %s: hit %+v not in the full result set", trial, label, keyOf(h))
		}
		valid[keyOf(h)]--
	}
}

// TestPrefixShardedEquivalenceProperty is the randomized prefix-vs-single
// equivalence property, mirroring TestShardedEquivalenceProperty: across
// random databases, queries, shard counts, MinScore thresholds,
// MaxResults limits and early cancellation, the prefix-partitioned engine
// must report the same sequences with the same scores in globally
// non-increasing score order as the single-index search.  Equal-score ties
// may leave the merge in a different order than the single traversal's, so
// hits are compared as (sequence, score) pairs.
func TestPrefixShardedEquivalenceProperty(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2003))
			letters := cfg.a.Letters()
			for trial := 0; trial < 40; trial++ {
				db := randomShardDB(t, rng, cfg.a, 2+rng.Intn(30), 90)
				qb := make([]byte, 3+rng.Intn(16))
				for i := range qb {
					qb[i] = letters[rng.Intn(len(letters))]
				}
				query := cfg.a.MustEncode(string(qb))
				minScore := 1 + rng.Intn(12)
				var ka *score.KarlinAltschul
				if params, err := score.Params(cfg.scheme.Matrix, nil); err == nil && rng.Intn(2) == 0 {
					ka = &params
				}
				opts := core.Options{Scheme: cfg.scheme, MinScore: minScore, KA: ka}

				single, err := core.BuildMemoryIndex(db)
				if err != nil {
					t.Fatal(err)
				}
				baseline, err := core.SearchAll(single, query, opts)
				if err != nil {
					t.Fatal(err)
				}

				engine, err := NewEngine(db, Options{Shards: 1 + rng.Intn(8), Partition: PartitionByPrefix})
				if err != nil {
					t.Fatal(err)
				}

				var st core.Stats
				fullOpts := opts
				fullOpts.Stats = &st
				sharded, err := engine.SearchAll(query, fullOpts)
				if err != nil {
					t.Fatal(err)
				}
				checkOrderAndRanks(t, sharded, "prefix full")
				if len(sharded) != len(baseline) {
					t.Fatalf("trial %d (%d shards): prefix-sharded reported %d hits, single %d",
						trial, engine.NumShards(), len(sharded), len(baseline))
				}
				wantPairs := map[[2]int]int{}
				for _, h := range baseline {
					wantPairs[[2]int{h.SeqIndex, h.Score}]++
				}
				for i, h := range sharded {
					if h.Score != baseline[i].Score {
						t.Fatalf("trial %d: score %d at position %d, baseline has %d",
							trial, h.Score, i, baseline[i].Score)
					}
					k := [2]int{h.SeqIndex, h.Score}
					if wantPairs[k] == 0 {
						t.Fatalf("trial %d: hit %+v not in the single-index result set", trial, h)
					}
					wantPairs[k]--
					if h.EValue != baseline[i].EValue {
						t.Fatalf("trial %d: E-value %v at position %d, baseline has %v",
							trial, h.EValue, i, baseline[i].EValue)
					}
				}
				if st.SequencesReported < int64(len(sharded)) {
					t.Fatalf("trial %d: merged stats report %d sequences, emitted %d",
						trial, st.SequencesReported, len(sharded))
				}

				// Top-k: score sequence equals the baseline's first k scores.
				if len(baseline) > 1 {
					k := 1 + rng.Intn(len(baseline))
					topOpts := opts
					topOpts.MaxResults = k
					topK, err := engine.SearchAll(query, topOpts)
					if err != nil {
						t.Fatal(err)
					}
					checkTruncatedPairs(t, trial, "prefix top-k", topK, baseline, k)
				}

				// Early cancel via the report callback.
				if len(baseline) > 0 {
					stop := 1 + rng.Intn(len(baseline))
					var got []core.Hit
					err := engine.Search(query, opts, func(h core.Hit) bool {
						got = append(got, h)
						return len(got) < stop
					})
					if err != nil {
						t.Fatal(err)
					}
					checkTruncatedPairs(t, trial, "prefix early-cancel", got, baseline, stop)
				}
			}
		})
	}
}

// checkTruncatedPairs verifies a truncated prefix-sharded stream against the
// full single-index baseline: same length, same score sequence, every
// (sequence, score) pair present in the full result set.
func checkTruncatedPairs(t *testing.T, trial int, label string, got, baseline []core.Hit, k int) {
	t.Helper()
	if k > len(baseline) {
		k = len(baseline)
	}
	if len(got) != k {
		t.Fatalf("trial %d %s: got %d hits, want %d", trial, label, len(got), k)
	}
	checkOrderAndRanks(t, got, label)
	valid := map[[2]int]int{}
	for _, h := range baseline {
		valid[[2]int{h.SeqIndex, h.Score}]++
	}
	for i, h := range got {
		if h.Score != baseline[i].Score {
			t.Fatalf("trial %d %s: score %d at position %d, baseline has %d",
				trial, label, h.Score, i, baseline[i].Score)
		}
		k := [2]int{h.SeqIndex, h.Score}
		if valid[k] == 0 {
			t.Fatalf("trial %d %s: hit %+v not in the full result set", trial, label, h)
		}
		valid[k]--
	}
}

// TestPrefixShardingEliminatesNearRootDuplication is the tentpole work
// claim: on a full (uncancelled) workload, the prefix-partitioned engine's
// total ColumnsExpanded and CellsComputed must equal the single-index
// search's exactly, at every shard count — the shared frontier computes
// near-root columns once, and disjoint subtrees never repeat work.  The
// sequence-partitioned engine, by contrast, must show strictly more columns
// at 4 shards (that duplication is what prefix partitioning removes).
func TestPrefixShardingEliminatesNearRootDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	motif := "DKDGDGCITTKELGTVMRSL"
	letters := seq.Protein.Letters()
	strs := make([]string, 60)
	for i := range strs {
		b := make([]byte, 40+rng.Intn(110))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		s := string(b)
		if i%3 == 0 { // plant the motif (sometimes truncated) in a third
			frag := motif[:8+rng.Intn(len(motif)-8)]
			pos := rng.Intn(len(s))
			s = s[:pos] + frag + s[pos:]
		}
		strs[i] = s
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strs...)
	if err != nil {
		t.Fatal(err)
	}
	query := seq.Protein.MustEncode(motif)
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	opts := core.Options{Scheme: scheme, MinScore: 30}

	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	var base core.Stats
	baseOpts := opts
	baseOpts.Stats = &base
	baseHits, err := core.SearchAll(single, query, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseHits) == 0 || len(baseHits) == db.NumSequences() {
		t.Fatalf("degenerate workload: %d/%d sequences hit", len(baseHits), db.NumSequences())
	}

	for _, shards := range []int{2, 4, 8} {
		engine, err := NewEngine(db, Options{Shards: shards, Partition: PartitionByPrefix})
		if err != nil {
			t.Fatal(err)
		}
		var st core.Stats
		prefOpts := opts
		prefOpts.Stats = &st
		hits, err := engine.SearchAll(query, prefOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(baseHits) {
			t.Fatalf("%d shards: %d hits, single-index %d", shards, len(hits), len(baseHits))
		}
		if st.ColumnsExpanded != base.ColumnsExpanded {
			t.Errorf("%d shards: ColumnsExpanded %d, single-index %d (near-root work duplicated or lost)",
				shards, st.ColumnsExpanded, base.ColumnsExpanded)
		}
		if st.CellsComputed != base.CellsComputed {
			t.Errorf("%d shards: CellsComputed %d, single-index %d",
				shards, st.CellsComputed, base.CellsComputed)
		}
	}

	seqEngine, err := NewEngine(db, Options{Shards: 4, Partition: PartitionBySequence})
	if err != nil {
		t.Fatal(err)
	}
	var seqStats core.Stats
	seqOpts := opts
	seqOpts.Stats = &seqStats
	if _, err := seqEngine.SearchAll(query, seqOpts); err != nil {
		t.Fatal(err)
	}
	if seqStats.ColumnsExpanded <= base.ColumnsExpanded {
		t.Fatalf("sequence sharding at 4 shards expanded %d columns, expected more than the single-index %d",
			seqStats.ColumnsExpanded, base.ColumnsExpanded)
	}
	t.Logf("columns: single=%d prefix(2/4/8)=%d sequence(4)=%d",
		base.ColumnsExpanded, base.ColumnsExpanded, seqStats.ColumnsExpanded)
}

// TestShardedSingleShardMatchesBaselineExactly pins the 1-shard fast path to
// the single-index search bit for bit (whole hits, ranks included).
func TestShardedSingleShardMatchesBaselineExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomShardDB(t, rng, seq.DNA, 12, 80)
	query := seq.DNA.MustEncode("ACGTACGT")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}

	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := core.SearchAll(single, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.SearchAll(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(baseline) {
		t.Fatalf("got %d hits, want %d", len(got), len(baseline))
	}
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("hit %d differs: got %+v, want %+v", i, got[i], baseline[i])
		}
	}
}

// TestShardedErrorPropagation checks option validation surfaces through the
// sharded engine.
func TestShardedErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomShardDB(t, rng, seq.DNA, 6, 40)
	engine, err := NewEngine(db, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// MinScore 0 is invalid.
	if _, err := engine.SearchAll(seq.DNA.MustEncode("ACGT"), core.Options{
		Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 0,
	}); err == nil {
		t.Fatal("expected a MinScore validation error")
	}
	// Empty queries are invalid.
	if _, err := engine.SearchAll(nil, core.Options{
		Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 1,
	}); err == nil {
		t.Fatal("expected an empty-query error")
	}
}

// TestPrefixEngineConcurrentStress multiplexes concurrent queries over one
// prefix engine (the shared dedup sets and scratch free lists, the
// shard-affine scratch slots) and checks every whole stream against a
// per-query reference; run with -race this is the prefix path's data-race
// harness.
func TestPrefixEngineConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7717))
	db := randomShardDB(t, rng, seq.DNA, 24, 90)
	eng, err := NewEngine(db, Options{Shards: 6, Partition: PartitionByPrefix})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scheme := score.MustScheme(score.UnitDNA(), -1)
	letters := seq.DNA.Letters()
	type job struct {
		query []byte
		opts  core.Options
		want  []core.Hit
	}
	jobs := make([]job, 6)
	for i := range jobs {
		qb := make([]byte, 4+rng.Intn(10))
		for j := range qb {
			qb[j] = letters[rng.Intn(len(letters))]
		}
		j := job{query: seq.DNA.MustEncode(string(qb)), opts: core.Options{Scheme: scheme, MinScore: 2 + i%5}}
		want, err := eng.SearchAll(j.query, j.opts)
		if err != nil {
			t.Fatal(err)
		}
		j.want = want
		jobs[i] = j
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				j := jobs[(g+rep)%len(jobs)]
				got, err := eng.SearchAll(j.query, j.opts)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(j.want) {
					errs <- fmt.Errorf("goroutine %d rep %d: %d hits, want %d", g, rep, len(got), len(j.want))
					return
				}
				for i := range got {
					if got[i] != j.want[i] {
						errs <- fmt.Errorf("goroutine %d rep %d: hit %d = %+v, want %+v", g, rep, i, got[i], j.want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
