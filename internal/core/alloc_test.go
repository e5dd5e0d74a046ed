package core

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops a share of what is put back (so a pooled edge label is
// reallocated now and then).
var raceEnabled bool

// TestWarmSearchAllocatesNothingPerNode pins the best-first loop's per-node
// path to zero allocations: with a reused Scratch and Stats, a warm search
// over a MemoryIndex allocates only its searcher and the two callbacks bound
// to it, however many nodes it expands and hits it reports — for a full
// stream and for a top-10 search alike.
func TestWarmSearchAllocatesNothingPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled labels at random")
	}
	rng := rand.New(rand.NewSource(11))
	idx := memIndex(t, randomDB(t, rng, seq.Protein, 120, 300))
	query := seq.Protein.MustEncode("DKDGDGCITTKELGTVMRSL")
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	hits := 0
	report := func(Hit) bool { hits++; return true }
	for _, tc := range []struct {
		name string
		max  int
	}{{"full stream", 0}, {"top 10", 10}} {
		var st Stats
		opts := Options{Scheme: scheme, MinScore: 20, MaxResults: tc.max, Stats: &st, Scratch: NewScratch()}
		search := func() {
			if err := Search(idx, query, opts, report); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm the scratch: queue lanes, node stores, band free lists
		st, hits = Stats{}, 0
		search()
		nodes, reported := st.NodesExpanded, hits
		if nodes < 100 || reported < 10 {
			t.Fatalf("%s: workload too small to show per-node allocation: %d nodes expanded, %d hits", tc.name, nodes, reported)
		}
		if allocs := testing.AllocsPerRun(20, search); allocs > 4 {
			t.Errorf("%s: %.0f allocations per warm search of %d nodes expanded and %d hits; want <= 4",
				tc.name, allocs, nodes, reported)
		}
	}
}
