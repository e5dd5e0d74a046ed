package core

import (
	"bytes"
	"testing"

	"repro/internal/fuzzutil"
	"repro/internal/score"
	"repro/internal/seq"
)

// fuzzDatabase / fuzzQuery derive search inputs from fuzzer bytes (shared
// with internal/shard's fuzz target via internal/fuzzutil).
func fuzzDatabase(a *seq.Alphabet, data []byte) *seq.Database {
	return fuzzutil.DatabaseFromBytes(a, data)
}

func fuzzQuery(a *seq.Alphabet, data []byte) []byte {
	return fuzzutil.QueryFromBytes(a, data, 64)
}

// FuzzLiveBandEquivalence asserts the live-band DP kernel's core contract on
// arbitrary inputs, gap penalties (-1..-4) and score cutoffs: searching with
// the band must report exactly the hits — same sequences, same scores, same
// order — as the exhaustive full-column sweep (searchAllFull), and expand the
// same columns.  Both runs share long-lived Scratches across fuzz iterations,
// so stale-buffer bugs in the band bookkeeping (cells outside [cLo, cHi] must
// never be read) surface as mismatches.
func FuzzLiveBandEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("ACGTAC"), uint8(3), uint8(0))
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT"), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7}, uint8(2), uint8(0))
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("ACGTAC"), uint8(3), uint8(1))
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT"), uint8(1), uint8(2))
	f.Add([]byte("ACGGGTACCA\x00CCCGGGTTTAAA\x00GTGTGTGTGT"), []byte("GGGTTT"), uint8(4), uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7}, uint8(2), uint8(1))
	bandScratch := NewScratch()
	fullScratch := NewScratch()
	f.Fuzz(func(t *testing.T, dbData, queryData []byte, minByte, gapByte uint8) {
		db := fuzzDatabase(seq.DNA, dbData)
		q := fuzzQuery(seq.DNA, queryData)
		if db == nil || q == nil {
			t.Skip()
		}
		idx, err := BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		scheme := score.MustScheme(score.UnitDNA(), -1-int(gapByte%4))
		minScore := 1 + int(minByte%12)
		var bandStats, fullStats Stats
		band, err := SearchAll(idx, q, Options{
			Scheme: scheme, MinScore: minScore, Stats: &bandStats, Scratch: bandScratch,
		})
		if err != nil {
			t.Fatalf("band search: %v", err)
		}
		full, err := searchAllFull(idx, q, Options{
			Scheme: scheme, MinScore: minScore, Stats: &fullStats, Scratch: fullScratch,
		})
		if err != nil {
			t.Fatalf("full-sweep search: %v", err)
		}
		if len(band) != len(full) {
			t.Fatalf("hit count: band %d, full sweep %d (db %q, query %q, minScore %d, gap %d)",
				len(band), len(full), dbData, queryData, minScore, scheme.Gap)
		}
		for i := range band {
			if band[i] != full[i] {
				t.Fatalf("hit %d differs: band %+v, full sweep %+v (minScore %d, gap %d)",
					i, band[i], full[i], minScore, scheme.Gap)
			}
		}
		if bandStats.CellsComputed > fullStats.CellsComputed {
			t.Fatalf("band computed MORE cells than the full sweep: %d > %d",
				bandStats.CellsComputed, fullStats.CellsComputed)
		}
		// Row-0 skip equivalence: neither mode computes the provably dead
		// row 0, and the band only changes which cells of a column are
		// touched — never which columns are expanded.
		if bandStats.ColumnsExpanded != fullStats.ColumnsExpanded {
			t.Fatalf("band expanded %d columns, full sweep %d (row-0 skip or band changed filtering)",
				bandStats.ColumnsExpanded, fullStats.ColumnsExpanded)
		}
		if bandStats.MaxBandWidth > len(q)+1 {
			t.Fatalf("band width %d exceeds the full column %d", bandStats.MaxBandWidth, len(q)+1)
		}
		if bandStats.SequencesReported != int64(len(band)) {
			t.Fatalf("stats report %d sequences, stream had %d", bandStats.SequencesReported, len(band))
		}
	})
}

// FuzzKernelEquivalence is the DP kernel's differential harness against an
// oracle that shares none of its code: on arbitrary databases, queries, gap
// penalties (-1..-4) and score cutoffs, the search must report exactly the
// sequences whose plain Smith-Waterman score (align.Score) reaches the cutoff,
// each once, with that score, in non-increasing score order.
// FuzzLiveBandEquivalence compares the banded sweep with the full-column
// sweep, which run the same column code, so a pruning fault both share passes
// it; this target catches it.  disableBand runs the full-column sweep (searchAllFull)
// instead of the live band, holding both modes to the oracle.  One Scratch
// is shared across iterations, so stale-buffer faults surface here too.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("ACGTAC"), uint8(3), uint8(1), false)
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT"), uint8(1), uint8(2), true)
	f.Add([]byte("ACGGGTACCA\x00CCCGGGTTTAAA\x00GTGTGTGTGT"), []byte("GGGTTT"), uint8(4), uint8(4), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7}, uint8(2), uint8(1), true)
	scratch := NewScratch()
	f.Fuzz(func(t *testing.T, dbData, queryData []byte, minByte, gapByte uint8, disableBand bool) {
		db := fuzzDatabase(seq.DNA, dbData)
		q := fuzzQuery(seq.DNA, queryData)
		if db == nil || q == nil {
			t.Skip()
		}
		idx, err := BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		scheme := score.MustScheme(score.UnitDNA(), -1-int(gapByte%4))
		minScore := 1 + int(minByte%12)
		searchAll := SearchAll
		if disableBand {
			searchAll = searchAllFull
		}
		var stats Stats
		hits, err := searchAll(idx, q, Options{
			Scheme: scheme, MinScore: minScore, Stats: &stats, Scratch: scratch,
		})
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want := swBestPerSequence(db, q, scheme, minScore)
		if len(hits) != len(want) {
			t.Fatalf("reported %d sequences, Smith-Waterman finds %d (db %q, query %q, minScore %d, gap %d, full sweep %v)",
				len(hits), len(want), dbData, queryData, minScore, scheme.Gap, disableBand)
		}
		seen := map[int]bool{}
		for i, h := range hits {
			if seen[h.SeqIndex] {
				t.Fatalf("sequence %d reported twice", h.SeqIndex)
			}
			seen[h.SeqIndex] = true
			if sw, ok := want[h.SeqIndex]; !ok || h.Score != sw {
				t.Fatalf("hit %+v: Smith-Waterman score %d (reported: %v; minScore %d, gap %d, full sweep %v)",
					h, sw, ok, minScore, scheme.Gap, disableBand)
			}
			if i > 0 && h.Score > hits[i-1].Score {
				t.Fatalf("hit %d scores %d after %d: not in non-increasing order", i, h.Score, hits[i-1].Score)
			}
		}
		if stats.SequencesReported != int64(len(hits)) {
			t.Fatalf("stats report %d sequences, stream had %d", stats.SequencesReported, len(hits))
		}
	})
}

// FuzzScratchReuseDeterminism asserts that searching with a reused Scratch is
// bit-identical to searching with fresh buffers, across arbitrary
// query/database successions (the warm engine's correctness foundation).
func FuzzScratchReuseDeterminism(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGG\x00GGGTTTACGT"), []byte("ACGT"), []byte("GGTTT"))
	scheme := score.MustScheme(score.UnitDNA(), -1)
	warm := NewScratch()
	f.Fuzz(func(t *testing.T, dbData, q1Data, q2Data []byte) {
		db := fuzzDatabase(seq.DNA, dbData)
		q1 := fuzzQuery(seq.DNA, q1Data)
		q2 := fuzzQuery(seq.DNA, q2Data)
		if db == nil || q1 == nil || q2 == nil {
			t.Skip()
		}
		idx, err := BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		// Run q1 then q2 on the shared warm scratch; each must match a
		// fresh-scratch run (q1 deliberately pollutes the buffers for q2).
		for _, q := range [][]byte{q1, q2, q1} {
			opts := Options{Scheme: scheme, MinScore: 2}
			fresh, err := SearchAll(idx, q, opts)
			if err != nil {
				t.Fatalf("fresh search: %v", err)
			}
			opts.Scratch = warm
			reused, err := SearchAll(idx, q, opts)
			if err != nil {
				t.Fatalf("warm search: %v", err)
			}
			if len(fresh) != len(reused) {
				t.Fatalf("hit count: fresh %d, warm %d", len(fresh), len(reused))
			}
			for i := range fresh {
				if fresh[i] != reused[i] {
					t.Fatalf("hit %d differs: fresh %+v, warm %+v", i, fresh[i], reused[i])
				}
			}
		}
	})
}

// TestFuzzHelpersRejectDegenerateInput pins the skip conditions so corpus
// shrinkage does not silently skip everything.
func TestFuzzHelpersRejectDegenerateInput(t *testing.T) {
	if fuzzDatabase(seq.DNA, nil) != nil {
		t.Fatal("empty data should produce no database")
	}
	if fuzzDatabase(seq.DNA, bytes.Repeat([]byte{0}, 10)) != nil {
		t.Fatal("all-separator data should produce no database")
	}
	if db := fuzzDatabase(seq.DNA, []byte("ACGT")); db == nil || db.NumSequences() != 1 {
		t.Fatal("plain data should produce one sequence")
	}
	if fuzzQuery(seq.DNA, nil) != nil {
		t.Fatal("empty query data should be rejected")
	}
}
