package core

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

// testAssigner routes subtree prefixes to shards by a deterministic hash,
// splitting every even first symbol by its second symbol so both routing
// depths are exercised.
type testAssigner struct{ n int }

func (a testAssigner) NumShards() int        { return a.n }
func (a testAssigner) Split(first byte) bool { return first%2 == 0 }
func (a testAssigner) Owner(first, second byte) int {
	if a.Split(first) {
		return (int(first)*31 + int(second) + 7) % a.n
	}
	return int(first) % a.n
}

// TestExpandFrontierSeededSearchEquivalence is the subtree-sharding core
// contract: expanding the near-root trunk once and searching all resulting
// seeds in one pass must report exactly the baseline hits while doing exactly
// the baseline amount of column work (frontier + seed search, no duplicated
// near-root columns).
func TestExpandFrontierSeededSearchEquivalence(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2026))
			letters := cfg.a.Letters()
			strictTrials := 0
			for trial := 0; trial < 30; trial++ {
				db := randomDB(t, rng, cfg.a, 1+rng.Intn(14), 90)
				idx := memIndex(t, db)
				qb := make([]byte, 3+rng.Intn(16))
				for i := range qb {
					qb[i] = letters[rng.Intn(len(letters))]
				}
				query := cfg.a.MustEncode(string(qb))
				opts := Options{Scheme: cfg.scheme, MinScore: 1 + rng.Intn(10)}

				var baseStats Stats
				baseOpts := opts
				baseOpts.Stats = &baseStats
				baseline, err := SearchAll(idx, query, baseOpts)
				if err != nil {
					t.Fatal(err)
				}

				nShards := 1 + rng.Intn(5)
				fr, err := ExpandFrontier(idx, query, opts, testAssigner{n: nShards})
				if err != nil {
					t.Fatal(err)
				}

				// All seeds in one pass: identical hit multiset, identical
				// total work.
				var all []Seed
				for _, group := range fr.Seeds {
					all = append(all, group...)
				}
				var seedStats Stats
				seedOpts := opts
				seedOpts.Stats = &seedStats
				var seeded []Hit
				err = SearchSeedsStream(idx, query, seedOpts, all, func(h Hit) bool {
					seeded = append(seeded, h)
					return true
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkHitMultiset(t, trial, seeded, baseline)
				// When every database sequence is reported, the baseline
				// stops mid-queue and skips work the frontier has already
				// done up front, so exact work equality only holds when the
				// search runs to queue exhaustion.
				if len(baseline) < db.NumSequences() {
					strictTrials++
					total := fr.Stats
					total.Add(seedStats)
					if total.ColumnsExpanded != baseStats.ColumnsExpanded {
						t.Fatalf("trial %d: frontier+seeds expanded %d columns, baseline %d",
							trial, total.ColumnsExpanded, baseStats.ColumnsExpanded)
					}
					if total.CellsComputed != baseStats.CellsComputed {
						t.Fatalf("trial %d: frontier+seeds computed %d cells, baseline %d",
							trial, total.CellsComputed, baseStats.CellsComputed)
					}
					if total.NodesExpanded != baseStats.NodesExpanded {
						t.Fatalf("trial %d: frontier+seeds expanded %d nodes, baseline %d",
							trial, total.NodesExpanded, baseStats.NodesExpanded)
					}
				}

				// Per-shard passes: the union of per-sequence bests across
				// disjoint shard groups must equal the baseline's, proving
				// the frontier covers the whole search space exactly once.
				best := map[int]int{}
				for s, group := range fr.Seeds {
					groupOpts := opts
					err := SearchSeedsStream(idx, query, groupOpts, group, func(h Hit) bool {
						if h.Score > best[h.SeqIndex] {
							best[h.SeqIndex] = h.Score
						}
						return true
					}, nil)
					if err != nil {
						t.Fatalf("trial %d shard %d: %v", trial, s, err)
					}
					for i := range group {
						if group[i].f < opts.MinScore {
							t.Fatalf("trial %d shard %d: seed with bound %d below MinScore %d survived",
								trial, s, group[i].f, opts.MinScore)
						}
					}
					if len(group) > 0 && fr.Bounds[s] < opts.MinScore {
						t.Fatalf("trial %d shard %d: bound %d below MinScore with %d seeds",
							trial, s, fr.Bounds[s], len(group))
					}
				}
				wantBest := map[int]int{}
				for _, h := range baseline {
					wantBest[h.SeqIndex] = h.Score
				}
				if len(best) != len(wantBest) {
					t.Fatalf("trial %d: shard union reported %d sequences, baseline %d",
						trial, len(best), len(wantBest))
				}
				for si, sc := range wantBest {
					if best[si] != sc {
						t.Fatalf("trial %d: sequence %d best %d across shards, baseline %d",
							trial, si, best[si], sc)
					}
				}
			}
			if strictTrials == 0 {
				t.Fatal("no trial exercised the exact-work assertion; workload is degenerate")
			}
		})
	}
}

// checkHitMultiset compares two hit streams as (SeqIndex, Score) multisets
// and requires both to be non-increasing in score (equal-score hits may
// interleave differently when the queue seeding order differs).
func checkHitMultiset(t *testing.T, trial int, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("trial %d: score order violated at %d", trial, i)
		}
	}
	set := map[[2]int]int{}
	for _, h := range want {
		set[[2]int{h.SeqIndex, h.Score}]++
	}
	for _, h := range got {
		k := [2]int{h.SeqIndex, h.Score}
		if set[k] == 0 {
			t.Fatalf("trial %d: hit %+v not in baseline", trial, h)
		}
		set[k]--
	}
}

// TestExpandFrontierEmpty pins the degenerate cases: an unreachable MinScore
// yields an all-empty frontier, and searching zero seeds reports nothing.
func TestExpandFrontierEmpty(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGTACGT", "TTTT")
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	query := seq.DNA.MustEncode("ACG")
	opts := Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 100}
	fr, err := ExpandFrontier(idx, query, opts, testAssigner{n: 3})
	if err != nil {
		t.Fatal(err)
	}
	for s, group := range fr.Seeds {
		if len(group) != 0 {
			t.Fatalf("shard %d has %d seeds for an unreachable MinScore", s, len(group))
		}
	}
	err = SearchSeedsStream(idx, query, opts, nil, func(Hit) bool {
		t.Fatal("seedless search reported a hit")
		return false
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
