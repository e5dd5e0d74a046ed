package oasis_test

import (
	"context"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/oasis"
)

// exampleDatabase builds a tiny protein database: two EF-hand proteins that
// match the example query and two that do not.
func exampleDatabase() *oasis.Database {
	raw := []struct{ id, residues string }{
		{"CALM_HUMAN", "ADQLTEEQIAEFKEAFSLFDKDGDGTITTKELGTVMRSLGQNPTEAELQDMINEVDADGNGTIDFPEFLTMMARKM"},
		{"TNNC1_HUMAN", "MDDIYKAAVEQLTEEQKNEFKAAFDIFVLGAEDGCISTKELGKVMRMLGQNPTPEELQEMIDEVDEDGSGTVDFDEFLVMMVRCM"},
		{"MYG_HUMAN", "GLSDGEWQLVLNVWGKVEADIPGHGQEVLIRLFKGHPETLEKFDKFKHLKSEDEMKASEDLKKHGATVLTALGGILKKKGHHEAEI"},
		{"UNRELATED", "PPPPGGGGSSSSPPPPGGGGSSSSPPPPGGGGSSSS"},
	}
	var seqs []oasis.Sequence
	for _, s := range raw {
		seqs = append(seqs, oasis.Sequence{ID: s.id, Residues: oasis.Protein.MustEncode(s.residues)})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		log.Fatal(err)
	}
	return db
}

// ExampleSearch builds an in-memory index and streams hits in decreasing
// score order — the paper's online property: the strongest hit arrives
// first, and returning false from the callback stops the search early.
func ExampleSearch() {
	db := exampleDatabase()
	idx, err := oasis.NewMemoryIndex(db)
	if err != nil {
		log.Fatal(err)
	}
	query := oasis.Protein.MustEncode("DKDGDGTITTKE")
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		log.Fatal(err)
	}
	opts, err := oasis.NewSearchOptions(scheme, db, query, oasis.WithMinScore(20))
	if err != nil {
		log.Fatal(err)
	}
	var best oasis.Hit
	err = oasis.Search(idx, query, opts, func(h oasis.Hit) bool {
		fmt.Printf("#%d %s score=%d\n", h.Rank, h.SeqID, h.Score)
		if h.Rank == 1 {
			best = h
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// A hit carries no alignment; RecoverAlignment rebuilds the whole
	// alignment of the best hit.
	a, err := oasis.RecoverAlignment(idx, query, scheme, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best alignment: identity %.0f%%, %s\n", 100*a.Identity(), a.CIGAR())
	fmt.Print(a.Format(oasis.Protein, query, db.Sequence(best.SeqIndex).Residues))
	// Output:
	// #1 CALM_HUMAN score=64
	// #2 TNNC1_HUMAN score=34
	// best alignment: identity 100%, 12M
	// Query     1 DKDGDGTITTKE 12
	//             ||||||||||||
	// Target   20 DKDGDGTITTKE 31
}

// ExampleNewEngine searches the database with one worker per shard;
// per-shard hit streams are merged online, so the decreasing-score order
// (and therefore streaming top-k) survives sharding.
func ExampleNewEngine() {
	db := exampleDatabase()
	sharded, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sharded.Close()
	query := oasis.Protein.MustEncode("DKDGDGTITTKE")
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		log.Fatal(err)
	}
	opts, err := oasis.NewSearchOptions(scheme, db, query, oasis.WithMinScore(20))
	if err != nil {
		log.Fatal(err)
	}
	hits, err := sharded.SearchAll(context.Background(), query, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("%s score=%d\n", h.SeqID, h.Score)
	}
	// Output:
	// CALM_HUMAN score=64
	// TNNC1_HUMAN score=34
}

// ExampleEngine_SubmitBatch serves a batch over one warm engine: the index
// is built once and every query reuses it, with per-query decreasing-score
// hit streams multiplexed onto one channel.
func ExampleEngine_SubmitBatch() {
	db := exampleDatabase()
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		log.Fatal(err)
	}
	query := oasis.Protein.MustEncode("DKDGDGTITTKE")
	opts, err := oasis.NewSearchOptions(scheme, db, query, oasis.WithMinScore(20))
	if err != nil {
		log.Fatal(err)
	}
	batch := []oasis.BatchQuery{{ID: "ef-hand", Residues: query, Options: opts}}
	for r := range eng.SubmitBatch(context.Background(), batch) {
		if r.Done {
			fmt.Printf("%s done err=%v\n", r.QueryID, r.Err)
			continue
		}
		fmt.Printf("%s %s score=%d\n", r.QueryID, r.Hit.SeqID, r.Hit.Score)
	}
	// Output:
	// ef-hand CALM_HUMAN score=64
	// ef-hand TNNC1_HUMAN score=34
	// ef-hand done err=<nil>
}

// ExampleOpenEngine is the disk-backed serving flow: BuildShardedDiskIndex
// writes one index file per shard plus a manifest, and OpenEngine serves the
// directory without the database ever being resident — each shard reads
// through its own buffer pool, so the engine can serve datasets bigger than
// RAM (cmd/oasis-build and oasis-serve -index-dir wrap exactly this).
func ExampleOpenEngine() {
	db := exampleDatabase()
	dir, err := os.MkdirTemp("", "oasis-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	indexDir := filepath.Join(dir, "proteins.idx")
	manifest, _, err := oasis.BuildShardedDiskIndex(indexDir, db, oasis.ShardedIndexBuildOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d shards (%s partition)\n", len(manifest.Shards), manifest.Partition)

	eng, err := oasis.OpenEngine(indexDir, oasis.EngineOptions{PoolBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		log.Fatal(err)
	}
	query := oasis.Protein.MustEncode("DKDGDGTITTKE")
	opts, err := oasis.NewSearchOptionsSized(scheme, eng.TotalResidues(), query, oasis.WithMinScore(20))
	if err != nil {
		log.Fatal(err)
	}
	err = eng.Search(context.Background(), query, opts, func(h oasis.Hit) bool {
		fmt.Printf("%s score=%d\n", h.SeqID, h.Score)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// built 2 shards (sequence partition)
	// CALM_HUMAN score=64
	// TNNC1_HUMAN score=34
}

// ExampleSearch_topK is the paper's online top-k (Figure 9): hits arrive in
// decreasing score order, so WithMaxResults(k) stops the search once the k
// best sequences are out. Those k hits are the first k of the full stream,
// found with no more dynamic-programming columns than the full search.
func ExampleSearch_topK() {
	// Eight sequences carry the EF-hand motif with their last 0..7 motif
	// residues turned to alanine, so each scores below the one before.
	const motif = "DKDGDGTITTKE"
	var seqs []oasis.Sequence
	for i := 0; i < 8; i++ {
		variant := motif[:len(motif)-i] + strings.Repeat("A", i)
		seqs = append(seqs, oasis.Sequence{
			ID:       fmt.Sprintf("EF%d", i),
			Residues: oasis.Protein.MustEncode("PPGGSS" + variant + "SSGGPP"),
		})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := oasis.NewMemoryIndex(db)
	if err != nil {
		log.Fatal(err)
	}
	query := oasis.Protein.MustEncode(motif)
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		log.Fatal(err)
	}
	// run searches for at most maxResults sequences (0 = all of them).
	run := func(maxResults int) ([]oasis.Hit, oasis.SearchStats) {
		var st oasis.SearchStats
		opts, err := oasis.NewSearchOptions(scheme, db, query,
			oasis.WithMinScore(20), oasis.WithMaxResults(maxResults), oasis.WithStats(&st))
		if err != nil {
			log.Fatal(err)
		}
		hits, err := oasis.SearchAll(idx, query, opts)
		if err != nil {
			log.Fatal(err)
		}
		return hits, st
	}

	const k = 3
	full, fullStats := run(0)
	top, topStats := run(k)
	for _, h := range top {
		fmt.Printf("#%d %s score=%d\n", h.Rank, h.SeqID, h.Score)
	}
	fmt.Printf("full stream: %d hits\n", len(full))
	fmt.Printf("top-%d is the full stream's first %d: %v\n", k, k, slices.Equal(top, full[:k]))
	fmt.Printf("top-%d expanded no more columns than the full search: %v\n", k, topStats.ColumnsExpanded <= fullStats.ColumnsExpanded)
	// Output:
	// #1 EF0 score=64
	// #2 EF1 score=59
	// #3 EF2 score=54
	// full stream: 8 hits
	// top-3 is the full stream's first 3: true
	// top-3 expanded no more columns than the full search: true
}

// ExampleNewDatabase_dna searches nucleotides, the paper's second data set,
// under its Table 1 unit matrix (+1 match, -1 mismatch, -1 gap). The probe is
// a stretch of one sequence with one base changed; OASIS returns exactly the
// (sequence, score) set of an exhaustive Smith-Waterman scan.
func ExampleNewDatabase_dna() {
	raw := []struct{ id, bases string }{
		{"2L", "TTGACCATGGCTAGCTTACGGATCCGATTACAGGTCAAGT"},
		{"2R", "GGCTAGCTAACGGATCCTTTGACCAGTACGATCGATGCAA"},
		{"3L", "CAGTTGCAACGTACGTTAGCATGCATGACTAGCTAGGACT"},
		{"X", "ACGATGCATTACGGATCCGATTGCAGGAACCTTGGCCAAT"},
	}
	var seqs []oasis.Sequence
	for _, s := range raw {
		seqs = append(seqs, oasis.Sequence{ID: s.id, Residues: oasis.DNA.MustEncode(s.bases)})
	}
	db, err := oasis.NewDatabase(oasis.DNA, seqs)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := oasis.NewMemoryIndex(db)
	if err != nil {
		log.Fatal(err)
	}
	// 2L's bases 11-26 with the A at base 18 read as G.
	probe := oasis.DNA.MustEncode("CTAGCTTGCGGATCCG")
	scheme, err := oasis.NewScheme(oasis.MatrixByName("UNIT"), -1)
	if err != nil {
		log.Fatal(err)
	}
	const minScore = 8
	opts, err := oasis.NewSearchOptions(scheme, db, probe, oasis.WithMinScore(minScore))
	if err != nil {
		log.Fatal(err)
	}
	hits, err := oasis.SearchAll(idx, probe, opts)
	if err != nil {
		log.Fatal(err)
	}
	got := map[int]int{}
	for _, h := range hits {
		fmt.Printf("%s score=%d\n", h.SeqID, h.Score)
		got[h.SeqIndex] = h.Score
	}
	var sw []oasis.SmithWatermanHit
	sw, err = oasis.SmithWaterman(db, probe, scheme, minScore)
	if err != nil {
		log.Fatal(err)
	}
	want := map[int]int{}
	for _, h := range sw {
		want[h.SeqIndex] = h.Score
	}
	fmt.Printf("same (sequence, score) set as Smith-Waterman: %v\n", maps.Equal(got, want))
	// Output:
	// 2L score=14
	// 2R score=11
	// X score=10
	// same (sequence, score) set as Smith-Waterman: true
}
