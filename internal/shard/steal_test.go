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

// seedWithF builds a frontier seed carrying only the fields the steal pool
// looks at (f for ordering and limit checks, cost for victim choice).
func seedWithF(f int, cost int64) core.Seed {
	return core.NewTestSeed(f, cost)
}

// TestStealPoolMechanics pins the claim rules deterministically, without any
// searcher or goroutine in play: owners drain their own window hottest-first
// and only when the seed outranks their queue, thieves fire only from an
// empty queue against seeds strictly below their limit, and the victim is
// always the one with the most estimated work remaining.
func TestStealPoolMechanics(t *testing.T) {
	pool := newStealPool([][]core.Seed{
		{seedWithF(5, 10), seedWithF(9, 10)},                // shard 0 (sorted to 9,5)
		{seedWithF(7, 100), seedWithF(3, 100)},              // shard 1: costliest victim
		{seedWithF(4, 1), seedWithF(2, 1), seedWithF(8, 1)}, // shard 2
	})

	// Owner claims are hottest-first and gated on the queue top.
	if s := pool.claimFor(0, score.NegInf, 100); s == nil || s.F() != 9 {
		t.Fatalf("own claim = %+v, want f=9", s)
	}
	if s := pool.claimFor(0, 7, 100); s != nil {
		t.Fatalf("own seed f=5 claimed past queue top 7: %+v", s)
	}
	if s := pool.claimFor(0, 5, 100); s == nil || s.F() != 5 {
		t.Fatalf("own claim at equal f = %+v, want f=5", s)
	}

	// A non-empty queue never steals, whatever the limit.
	if s := pool.claimFor(0, 4, 100); s != nil {
		t.Fatalf("stole with a non-empty queue: %+v", s)
	}

	// Idle with limit 3: shard 1's coldest is f=3 (not strictly below), shard
	// 2's coldest is f=2 — only shard 2 qualifies despite its lower cost.
	if s := pool.claimFor(0, score.NegInf, 3); s == nil || s.F() != 2 {
		t.Fatalf("strict-limit steal = %+v, want f=2 from shard 2", s)
	}
	// Idle with a high limit: the costliest victim (shard 1) loses its
	// coldest seed first.
	if s := pool.claimFor(0, score.NegInf, 100); s == nil || s.F() != 3 {
		t.Fatalf("costliest-victim steal = %+v, want f=3 from shard 1", s)
	}
	if got := pool.stealCount(); got != 2 {
		t.Fatalf("stealCount = %d, want 2", got)
	}
	// Remaining: shard 1 {7}, shard 2 {8,4}. Shard 1 drains its own, then
	// everything else is stolen, and the pool reports empty exactly once all
	// seeds are claimed.
	if s := pool.claimFor(1, score.NegInf, 100); s == nil || s.F() != 7 {
		t.Fatalf("shard 1 own claim = %+v, want f=7", s)
	}
	if pool.empty() {
		t.Fatal("pool empty with shard 2's seeds unclaimed")
	}
	for _, want := range []int{4, 8} {
		if s := pool.claimFor(1, score.NegInf, 100); s == nil || s.F() != want {
			t.Fatalf("drain steal = %+v, want f=%d", s, want)
		}
	}
	if !pool.empty() {
		t.Fatal("pool not empty after every seed was claimed")
	}
	if s := pool.claimFor(1, score.NegInf, 100); s != nil {
		t.Fatalf("claim from empty pool = %+v", s)
	}
	if got := pool.stealCount(); got != 4 {
		t.Fatalf("stealCount = %d, want 4", got)
	}
}

// normalizeHits strips alignment endpoints: with stealing, which member of a
// sequence's co-optimal alignment tie set survives deduplication is
// timing-dependent (steal.go), while everything a client ranks on —
// sequence, id, score, E-value, rank — is identical to the no-steal stream.
func normalizeHits(hits []core.Hit) []core.Hit {
	out := make([]core.Hit, len(hits))
	for i, h := range hits {
		h.QueryEnd, h.TargetEnd = 0, 0
		out[i] = h
	}
	return out
}

func requireSameStream(t *testing.T, label string, got, want []core.Hit) {
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

// TestStealingStreamEquivalence is the stealing on/off differential: across
// random corpora, shard counts, alphabets and query knobs, an engine
// with work stealing must emit exactly the stream its NoSteal twin emits —
// same sequences, ids, scores, E-values and ranks, in the same order — and
// spend the same total column work.  (Sequence-partitioned engines have no
// seeds to steal; the flag must be a byte-exact no-op there.)
func TestStealingStreamEquivalence(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(907))
			letters := cfg.a.Letters()
			for trial := 0; trial < 15; trial++ {
				db := randomShardDB(t, rng, cfg.a, 4+rng.Intn(24), 90)
				base := Options{
					Shards:    2 + rng.Intn(6),
					Partition: PartitionByPrefix,
				}
				noSteal := base
				noSteal.NoSteal = true
				stealEng, err := NewEngine(db, base)
				if err != nil {
					t.Fatal(err)
				}
				noStealEng, err := NewEngine(db, noSteal)
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 3; q++ {
					qb := make([]byte, 3+rng.Intn(14))
					for i := range qb {
						qb[i] = letters[rng.Intn(len(letters))]
					}
					query := cfg.a.MustEncode(string(qb))
					opts := core.Options{Scheme: cfg.scheme, MinScore: 1 + rng.Intn(10)}
					if params, err := score.Params(cfg.scheme.Matrix, nil); err == nil && rng.Intn(2) == 0 {
						ka := params
						opts.KA = &ka
					}
					var stealStats, plainStats core.Stats
					sOpts, pOpts := opts, opts
					sOpts.Stats, pOpts.Stats = &stealStats, &plainStats
					got, err := stealEng.SearchAll(query, sOpts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := noStealEng.SearchAll(query, pOpts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("trial %d query %d (%d shards)", trial, q, base.Shards)
					requireSameStream(t, label, normalizeHits(got), normalizeHits(want))
					// The expansion set is a property of the f-thresholds, not
					// of who searches which subtree: total column work must
					// not change when seeds move between workers.  (Unless
					// every sequence was emitted — then the merger's early
					// stop cancels the shards mid-flight at a point that
					// depends on scheduling, with or without stealing.)
					if len(got) < db.NumSequences() && stealStats.ColumnsExpanded != plainStats.ColumnsExpanded {
						t.Fatalf("%s: stealing expanded %d columns, static split %d",
							label, stealStats.ColumnsExpanded, plainStats.ColumnsExpanded)
					}
					if noStealEng.Steals() != 0 {
						t.Fatalf("%s: NoSteal engine recorded %d steals", label, noStealEng.Steals())
					}
				}
				stealEng.Close()
				noStealEng.Close()
			}
		})
	}
}

// skewedStealDB builds a corpus whose query work is concentrated in one
// prefix group: every sequence is rich in 'A' runs, so for an all-A query
// nearly all viable subtrees hang under the 'A' prefix and the static
// suffix-count split leaves the other shards' workers idle almost
// immediately.
func skewedStealDB(t *testing.T, rng *rand.Rand, nSeqs int) *seq.Database {
	t.Helper()
	letters := []byte("CGT")
	strs := make([]string, nSeqs)
	for i := range strs {
		b := make([]byte, 0, 64)
		for len(b) < 48 {
			run := 4 + rng.Intn(12)
			for j := 0; j < run; j++ {
				b = append(b, 'A')
			}
			b = append(b, letters[rng.Intn(len(letters))])
		}
		strs[i] = string(b)
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strs...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStealingSkewedQuery drives the scenario stealing exists for: a query
// whose work lives almost entirely in one prefix shard.  Workers that drain
// their own (tiny) share must pick up the hot shard's pending seeds — the
// engine's steal counter has to move — and the stream must still equal the
// static split's.
func TestStealingSkewedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := skewedStealDB(t, rng, 24)
	stealEng, err := NewEngine(db, Options{Shards: 8, Partition: PartitionByPrefix})
	if err != nil {
		t.Fatal(err)
	}
	defer stealEng.Close()
	noStealEng, err := NewEngine(db, Options{Shards: 8, Partition: PartitionByPrefix, NoSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer noStealEng.Close()
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	for q, qs := range []string{"AAAAAAAAAA", "AAAAAAAAAAAAAAAA", "AAAAACAAAAA"} {
		query := seq.DNA.MustEncode(qs)
		got, err := stealEng.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := noStealEng.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStream(t, fmt.Sprintf("skewed query %d", q), normalizeHits(got), normalizeHits(want))
	}
	if stealEng.Steals() == 0 {
		t.Fatal("skewed queries produced no steals: workers idled on drained shards")
	}
	if noStealEng.Steals() != 0 {
		t.Fatalf("NoSteal engine recorded %d steals", noStealEng.Steals())
	}
}

// TestStealingConcurrentStress multiplexes concurrent queries over one
// stealing engine (shared steal-free lists, shard-affine scratch slots, the
// seed pool) and checks every stream against a per-query reference; run with
// -race this is the stealing path's data-race harness.
func TestStealingConcurrentStress(t *testing.T) {
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
		j.want = normalizeHits(want)
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
				got = normalizeHits(got)
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
