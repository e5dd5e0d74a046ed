package oasis_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

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
	err = oasis.Search(idx, query, opts, func(h oasis.Hit) bool {
		fmt.Printf("#%d %s score=%d\n", h.Rank, h.SeqID, h.Score)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// #1 CALM_HUMAN score=64
	// #2 TNNC1_HUMAN score=34
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
