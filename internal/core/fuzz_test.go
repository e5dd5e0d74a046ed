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
// arbitrary inputs: searching with the band must report exactly the hits —
// same sequences, same scores, same order — as the
// exhaustive full-column sweep (searchAllFull).  Both runs share
// long-lived Scratches across fuzz iterations, so stale-buffer bugs in the
// band bookkeeping (cells outside [cLo, cHi] must never be read) surface as
// mismatches.
func FuzzLiveBandEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("ACGTAC"), uint8(3))
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT"), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7}, uint8(2))
	scheme := score.MustScheme(score.UnitDNA(), -1)
	bandScratch := NewScratch()
	fullScratch := NewScratch()
	f.Fuzz(func(t *testing.T, dbData, queryData []byte, minByte uint8) {
		db := fuzzDatabase(seq.DNA, dbData)
		q := fuzzQuery(seq.DNA, queryData)
		if db == nil || q == nil {
			t.Skip()
		}
		idx, err := BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
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
			t.Fatalf("hit count: band %d, full sweep %d (db %q, query %q, minScore %d)",
				len(band), len(full), dbData, queryData, minScore)
		}
		for i := range band {
			if band[i] != full[i] {
				t.Fatalf("hit %d differs: band %+v, full sweep %+v (minScore %d)",
					i, band[i], full[i], minScore)
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

// FuzzKernelEquivalence is the branch-free kernel's differential harness: on
// arbitrary databases, queries, gap penalties and score cutoffs, the SoA
// edge-sweep kernel (kernel.go's sweepEdgeFast) must be observationally
// identical to the retained scalar reference kernel (Options.ReferenceKernel,
// sweepColumnRef) — the same hits in the same order,
// and the same work profile: columns expanded, cells computed (the sum of the
// per-column live-band interval widths), the widest band stored, and every
// accept/unviable decision.  Any divergence in the band arithmetic — a
// clamped interval off by one, a select that revives a dead cell — shows up
// as a cell-count or band-width mismatch even when the hits happen to agree.
// Both live-band modes are exercised: the full sweep (searchAllFull) widens
// the band to the full column, which pins the kernels' full-column code paths
// against each other too.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("ACGTAC"), uint8(3), uint8(1), false)
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT"), uint8(1), uint8(2), true)
	f.Add([]byte("ACGGGTACCA\x00CCCGGGTTTAAA\x00GTGTGTGTGT"), []byte("GGGTTT"), uint8(4), uint8(4), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7}, uint8(2), uint8(1), true)
	fastScratch := NewScratch()
	refScratch := NewScratch()
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
		opts := Options{
			Scheme:   score.MustScheme(score.UnitDNA(), -1-int(gapByte%4)),
			MinScore: 1 + int(minByte%12),
		}
		searchAll := SearchAll
		if disableBand {
			searchAll = searchAllFull
		}
		var fastStats, refStats Stats
		fastOpts := opts
		fastOpts.Stats = &fastStats
		fastOpts.Scratch = fastScratch
		fast, err := searchAll(idx, q, fastOpts)
		if err != nil {
			t.Fatalf("fast kernel: %v", err)
		}
		refOpts := opts
		refOpts.Stats = &refStats
		refOpts.Scratch = refScratch
		refOpts.ReferenceKernel = true
		ref, err := searchAll(idx, q, refOpts)
		if err != nil {
			t.Fatalf("reference kernel: %v", err)
		}
		if len(fast) != len(ref) {
			t.Fatalf("hit count: fast %d, reference %d (db %q, query %q, opts %+v)",
				len(fast), len(ref), dbData, queryData, opts)
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("hit %d differs: fast %+v, reference %+v (opts %+v)",
					i, fast[i], ref[i], opts)
			}
		}
		type workProfile struct {
			columns, cells, accepted, unviable, reported int64
			maxBand                                      int
		}
		fastWork := workProfile{fastStats.ColumnsExpanded, fastStats.CellsComputed,
			fastStats.NodesAccepted, fastStats.NodesUnviable, fastStats.SequencesReported,
			fastStats.MaxBandWidth}
		refWork := workProfile{refStats.ColumnsExpanded, refStats.CellsComputed,
			refStats.NodesAccepted, refStats.NodesUnviable, refStats.SequencesReported,
			refStats.MaxBandWidth}
		if fastWork != refWork {
			t.Fatalf("work profile diverged:\n fast: %+v\n  ref: %+v\n(db %q, query %q, opts %+v)",
				fastWork, refWork, dbData, queryData, opts)
		}
	})
}
