package core

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

// randomDB builds a random database whose sequences share enough planted
// substrings with the query source that searches produce real hit structure.
func randomDB(t *testing.T, rng *rand.Rand, a *seq.Alphabet, nSeqs, maxLen int) *seq.Database {
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
			// Plant the motif so some sequences align strongly.
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

// searchAllFull is SearchAll over the exhaustive full-column sweep (the
// searcher's full switch): the oracle the live band is compared against.
func searchAllFull(idx Index, query []byte, opts Options) ([]Hit, error) {
	s, err := newSearcher(idx, query, opts)
	if err != nil {
		return nil, err
	}
	defer s.release()
	s.full = true
	var hits []Hit
	err = s.runFromRoot(func(h Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}

func sameHits(t *testing.T, got, want []Hit, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: hit %d differs: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestLiveBandEquivalence checks that the banded DP kernel reports exactly
// the hits of the exhaustive sweep (same order, scores, coordinates) while
// computing no more cells, across random databases, queries and thresholds.
func TestLiveBandEquivalence(t *testing.T) {
	schemes := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range schemes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			letters := cfg.a.Letters()
			for trial := 0; trial < 25; trial++ {
				db := randomDB(t, rng, cfg.a, 1+rng.Intn(12), 80)
				idx := memIndex(t, db)
				qb := make([]byte, 3+rng.Intn(20))
				for i := range qb {
					qb[i] = letters[rng.Intn(len(letters))]
				}
				query := cfg.a.MustEncode(string(qb))
				minScore := 1 + rng.Intn(12)

				var bandStats, fullStats Stats
				band, err := SearchAll(idx, query, Options{
					Scheme: cfg.scheme, MinScore: minScore, Stats: &bandStats,
				})
				if err != nil {
					t.Fatal(err)
				}
				fullSweep, err := searchAllFull(idx, query, Options{
					Scheme: cfg.scheme, MinScore: minScore, Stats: &fullStats,
				})
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, band, fullSweep, name)
				if bandStats.ColumnsExpanded != fullStats.ColumnsExpanded {
					t.Fatalf("trial %d: band expanded %d columns, full sweep %d",
						trial, bandStats.ColumnsExpanded, fullStats.ColumnsExpanded)
				}
				if bandStats.CellsComputed > fullStats.CellsComputed {
					t.Fatalf("trial %d: band computed %d cells, more than full sweep's %d",
						trial, bandStats.CellsComputed, fullStats.CellsComputed)
				}
			}
		})
	}
}

// TestLiveBandReducesCells asserts the band actually pays off (fewer cells
// than the full sweep) on a selective search, not merely "no worse".
func TestLiveBandReducesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(t, rng, seq.Protein, 40, 200)
	idx := memIndex(t, db)
	query := seq.Protein.MustEncode("DKDGDGCITTKELGTV")
	scheme := score.MustScheme(score.ByName("PAM30"), -10)

	var bandStats, fullStats Stats
	if _, err := SearchAll(idx, query, Options{Scheme: scheme, MinScore: 25, Stats: &bandStats}); err != nil {
		t.Fatal(err)
	}
	if _, err := searchAllFull(idx, query, Options{Scheme: scheme, MinScore: 25, Stats: &fullStats}); err != nil {
		t.Fatal(err)
	}
	if fullStats.CellsComputed == 0 {
		t.Fatal("full sweep computed no cells; workload is degenerate")
	}
	if bandStats.CellsComputed >= fullStats.CellsComputed {
		t.Fatalf("live band computed %d cells, expected fewer than the full sweep's %d",
			bandStats.CellsComputed, fullStats.CellsComputed)
	}
	t.Logf("cells: band=%d full=%d (%.1f%% of full)", bandStats.CellsComputed,
		fullStats.CellsComputed, 100*float64(bandStats.CellsComputed)/float64(fullStats.CellsComputed))
}

// TestCompactColumnsBandSized asserts the band-aware column storage contract:
// on a selective search no viable node ever stores a full len(query)+1
// vector — the widest band requested stays strictly below the full column.
func TestCompactColumnsBandSized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(t, rng, seq.Protein, 40, 200)
	idx := memIndex(t, db)
	query := seq.Protein.MustEncode("DKDGDGCITTKELGTV")
	scheme := score.MustScheme(score.ByName("PAM30"), -10)

	var st Stats
	if _, err := SearchAll(idx, query, Options{Scheme: scheme, MinScore: 25, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.MaxBandWidth <= 0 {
		t.Fatal("search stored no bands; workload is degenerate")
	}
	if st.MaxBandWidth >= len(query)+1 {
		t.Fatalf("a viable node stored a full-width column: MaxBandWidth %d >= %d",
			st.MaxBandWidth, len(query)+1)
	}
	var full Stats
	if _, err := searchAllFull(idx, query, Options{Scheme: scheme, MinScore: 25, Stats: &full}); err != nil {
		t.Fatal(err)
	}
	if full.MaxBandWidth != len(query)+1 {
		t.Fatalf("full sweep should store full-width columns: MaxBandWidth %d, want %d",
			full.MaxBandWidth, len(query)+1)
	}
	t.Logf("max band width: band=%d full=%d", st.MaxBandWidth, full.MaxBandWidth)
}

// TestScratchBufferOwnership is the regression test for the scratch-buffer
// aliasing hazard: expand swaps its local prev/cur pointers once per column
// and early-return paths used to leave s.prevBuf/s.curBuf out of sync with
// the locals.  Every return path now re-synchronises the fields, so after
// any search the two buffers must remain distinct, full-length arrays.
func TestScratchBufferOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(t, rng, seq.DNA, 1+rng.Intn(8), 60)
		idx := memIndex(t, db)
		letters := seq.DNA.Letters()
		qb := make([]byte, 2+rng.Intn(12))
		for i := range qb {
			qb[i] = letters[rng.Intn(len(letters))]
		}
		query := seq.DNA.MustEncode(string(qb))
		s, err := newSearcher(idx, query, Options{Scheme: unitScheme, MinScore: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.runFromRoot(func(Hit) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if len(s.prevBuf) != len(query)+1 || len(s.curBuf) != len(query)+1 {
			t.Fatalf("scratch buffers resized: prev=%d cur=%d want %d", len(s.prevBuf), len(s.curBuf), len(query)+1)
		}
		if &s.prevBuf[0] == &s.curBuf[0] {
			t.Fatal("scratch buffers alias the same array after search")
		}
	}
}
