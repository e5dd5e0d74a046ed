package oasis

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/align"
	"repro/internal/workload"
)

// testWorkload builds a small planted-motif protein database plus queries.
func testWorkload(t *testing.T, residues int64, nQueries int) (*Database, []workload.Query) {
	t.Helper()
	cfg := workload.DefaultProteinConfig(residues)
	db, motifs, err := workload.ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.MotifQueries(db, motifs, workload.DefaultQueryConfig(nQueries))
	if err != nil {
		t.Fatal(err)
	}
	return db, queries
}

func TestEndToEndMemoryIndexMatchesSW(t *testing.T) {
	db, queries := testWorkload(t, 20_000, 12)
	idx, err := NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := NewScheme(MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		opts, err := NewSearchOptions(scheme, db, q.Residues, WithEValue(20000))
		if err != nil {
			t.Fatal(err)
		}
		hits, err := SearchAll(idx, q.Residues, opts)
		if err != nil {
			t.Fatalf("query %s: %v", q.ID, err)
		}
		swHits, err := SmithWaterman(db, q.Residues, scheme, opts.MinScore)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(swHits) {
			t.Fatalf("query %s: OASIS %d hits, S-W %d hits (minScore %d)", q.ID, len(hits), len(swHits), opts.MinScore)
		}
		want := map[int]int{}
		for _, h := range swHits {
			want[h.SeqIndex] = h.Score
		}
		for _, h := range hits {
			if want[h.SeqIndex] != h.Score {
				t.Fatalf("query %s sequence %d: OASIS %d, S-W %d", q.ID, h.SeqIndex, h.Score, want[h.SeqIndex])
			}
		}
	}
}

func TestEndToEndDiskIndexMatchesSW(t *testing.T) {
	db, queries := testWorkload(t, 15_000, 6)
	path := filepath.Join(t.TempDir(), "proteins.idx")
	_, st, err := BuildShardedDiskIndex(path, db, ShardedIndexBuildOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].BytesPerSymbol <= 0 {
		t.Fatalf("bad build stats: %+v", st)
	}
	eng, err := OpenEngine(path, EngineOptions{PoolBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scheme, err := NewScheme(MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		opts, err := NewSearchOptions(scheme, db, q.Residues, WithEValue(1000))
		if err != nil {
			t.Fatal(err)
		}
		hits, err := eng.SearchAll(context.Background(), q.Residues, opts)
		if err != nil {
			t.Fatalf("query %s: %v", q.ID, err)
		}
		swHits, err := SmithWaterman(db, q.Residues, scheme, opts.MinScore)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(swHits) {
			t.Fatalf("query %s: disk OASIS %d hits, S-W %d hits", q.ID, len(hits), len(swHits))
		}
		want := map[int]int{}
		for _, h := range swHits {
			want[h.SeqIndex] = h.Score
		}
		for _, h := range hits {
			if want[h.SeqIndex] != h.Score {
				t.Fatalf("query %s sequence %d: disk OASIS %d, S-W %d", q.ID, h.SeqIndex, h.Score, want[h.SeqIndex])
			}
		}
	}
}

func TestDiskAndMemoryIndexesAgree(t *testing.T) {
	db, queries := testWorkload(t, 10_000, 5)
	path := filepath.Join(t.TempDir(), "idx")
	if _, _, err := BuildShardedDiskIndex(path, db, ShardedIndexBuildOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, EngineOptions{PoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem, err := NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := NewScheme(MatrixByName("PAM30"), -12)
	for _, q := range queries {
		opts, _ := NewSearchOptions(scheme, db, q.Residues, WithMinScore(30))
		a, err := SearchAll(mem, q.Residues, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.SearchAll(context.Background(), q.Residues, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %s: memory %d hits, disk %d hits", q.ID, len(a), len(b))
		}
		for i := range a {
			if a[i].SeqIndex != b[i].SeqIndex || a[i].Score != b[i].Score {
				t.Fatalf("query %s hit %d differs: %+v vs %+v", q.ID, i, a[i], b[i])
			}
		}
	}
}

func TestOnlineTopKStopsEarly(t *testing.T) {
	db, queries := testWorkload(t, 20_000, 3)
	idx, err := NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := NewScheme(MatrixByName("BLOSUM62"), -8)
	q := queries[0].Residues
	var full SearchStats
	optsFull, _ := NewSearchOptions(scheme, db, q, WithMinScore(20), WithStats(&full))
	all, err := SearchAll(idx, q, optsFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Skip("workload produced too few hits for a top-k comparison")
	}
	var topk SearchStats
	optsTop, _ := NewSearchOptions(scheme, db, q, WithMinScore(20), WithMaxResults(2), WithStats(&topk))
	top, err := SearchAll(idx, q, optsTop)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("top-k returned %d hits", len(top))
	}
	for i := range top {
		if top[i].SeqIndex != all[i].SeqIndex || top[i].Score != all[i].Score {
			t.Fatalf("top-k hit %d differs from full search", i)
		}
	}
	if topk.ColumnsExpanded > full.ColumnsExpanded {
		t.Fatalf("top-k expanded more columns (%d) than the full search (%d)", topk.ColumnsExpanded, full.ColumnsExpanded)
	}
}

func TestBLASTBaselineSubsetOfOASIS(t *testing.T) {
	db, queries := testWorkload(t, 20_000, 8)
	idx, err := NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := NewScheme(MatrixByName("BLOSUM62"), -8)
	bl, err := NewBLAST(db, scheme, BLASTOptions{TwoHit: true, EValue: 20000})
	if err != nil {
		t.Fatal(err)
	}
	totalOASIS, totalBLAST := 0, 0
	for _, q := range queries {
		if len(q.Residues) < 5 {
			continue
		}
		opts, err := NewSearchOptions(scheme, db, q.Residues, WithEValue(20000))
		if err != nil {
			t.Fatal(err)
		}
		oasisHits, err := SearchAll(idx, q.Residues, opts)
		if err != nil {
			t.Fatal(err)
		}
		blastHits, err := bl.Search(q.Residues, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalOASIS += len(oasisHits)
		totalBLAST += len(blastHits)
		// Every sequence the heuristic reports must also be found by the
		// accurate search, and never with a lower score.
		oasisScore := map[int]int{}
		for _, h := range oasisHits {
			oasisScore[h.SeqIndex] = h.Score
		}
		for _, h := range blastHits {
			s, ok := oasisScore[h.SeqIndex]
			if ok && h.Score > s {
				t.Fatalf("query %s: BLAST score %d exceeds OASIS optimal %d", q.ID, h.Score, s)
			}
		}
	}
	if totalOASIS < totalBLAST {
		t.Fatalf("accurate search found fewer total hits (%d) than the heuristic (%d)", totalOASIS, totalBLAST)
	}
}

func TestRecoverAlignmentPublicAPI(t *testing.T) {
	db, queries := testWorkload(t, 10_000, 4)
	idx, err := NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := NewScheme(MatrixByName("BLOSUM62"), -8)
	for _, q := range queries {
		opts, _ := NewSearchOptions(scheme, db, q.Residues, WithMinScore(25))
		hits, err := SearchAll(idx, q.Residues, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits[:min(len(hits), 3)] {
			a, err := RecoverAlignment(idx, q.Residues, scheme, h)
			if err != nil {
				t.Fatal(err)
			}
			if a.Score != h.Score {
				t.Fatalf("recovered score %d != hit score %d", a.Score, h.Score)
			}
			if err := a.Validate(len(q.Residues), db.Sequence(h.SeqIndex).Len()); err != nil {
				t.Fatal(err)
			}
			if got := align.RescoreOps(a, q.Residues, db.Sequence(h.SeqIndex).Residues, scheme.Matrix, scheme.Gap); got != a.Score {
				t.Fatalf("ops rescore %d != %d", got, a.Score)
			}
		}
	}
}

func TestSearchOptionsValidationAndEValue(t *testing.T) {
	db, _ := testWorkload(t, 5_000, 1)
	scheme, _ := NewScheme(MatrixByName("PAM30"), -10)
	q := make([]byte, 16)
	opts, err := NewSearchOptions(scheme, db, q, WithEValue(20000))
	if err != nil {
		t.Fatal(err)
	}
	if opts.MinScore < 1 || opts.KA == nil {
		t.Fatalf("E-value conversion failed: %+v", opts)
	}
	strict, err := NewSearchOptions(scheme, db, q, WithEValue(1))
	if err != nil {
		t.Fatal(err)
	}
	if strict.MinScore <= opts.MinScore {
		t.Fatalf("E=1 should demand a higher score than E=20000 (%d vs %d)", strict.MinScore, opts.MinScore)
	}
	if _, err := NewSearchOptions(Scheme{}, db, q); err == nil {
		t.Fatal("invalid scheme should be rejected")
	}
	if _, err := MinScoreForEValue(MatrixByName("BLOSUM62"), 10, 0, 1000); err == nil {
		t.Fatal("zero query length should be rejected")
	}
	ms, err := MinScoreForEValue(MatrixByName("BLOSUM62"), 10, 20, 1_000_000)
	if err != nil || ms < 1 {
		t.Fatalf("MinScoreForEValue = %d, %v", ms, err)
	}
	if MatrixByName("nosuch") != nil {
		t.Fatal("unknown matrix must return nil")
	}
	if _, err := EValueStatistics(MatrixByName("PAM30")); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
