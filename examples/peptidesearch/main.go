// Peptide search: the paper's headline workload.  Builds a SWISS-PROT-like
// synthetic protein database, writes the disk-based suffix-tree index, and
// runs a set of short peptide (motif) queries with all three searchers —
// OASIS, Smith-Waterman and the BLAST-style heuristic — comparing times and
// result counts, as in the paper's Figures 3 and 5.
//
//	go run ./examples/peptidesearch [-residues 300000] [-queries 15]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/workload"
	"repro/oasis"
)

func main() {
	residues := flag.Int64("residues", 300_000, "approximate database size in residues")
	nQueries := flag.Int("queries", 15, "number of peptide queries")
	eValue := flag.Float64("evalue", 20000, "selectivity (E-value)")
	flag.Parse()

	// 1. Generate the SWISS-PROT stand-in with planted motif families and a
	//    ProClass-like query workload drawn from those motifs.
	cfg := workload.DefaultProteinConfig(*residues)
	db, motifs, err := workload.ProteinDatabase(cfg)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := workload.MotifQueries(db, motifs, workload.DefaultQueryConfig(*nQueries))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d residues; %d peptide queries\n",
		db.NumSequences(), db.TotalResidues(), len(queries))

	// 2. Build and open the disk index (paper Section 3.4).
	dir, err := os.MkdirTemp("", "oasis-peptide-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	indexDir := filepath.Join(dir, "proteins.idx")
	buildStart := time.Now()
	_, bst, err := oasis.BuildShardedDiskIndex(indexDir, db, oasis.ShardedIndexBuildOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %.2f bytes/symbol, built in %s\n\n", bst[0].BytesPerSymbol, time.Since(buildStart).Round(time.Millisecond))
	eng, err := oasis.OpenEngine(indexDir, oasis.EngineOptions{PoolBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	scheme, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
	if err != nil {
		log.Fatal(err)
	}
	heuristic, err := oasis.NewBLAST(db, scheme, oasis.BLASTOptions{TwoHit: true, EValue: *eValue})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run every query with the three searchers.
	var oasisTotal, swTotal, blastTotal time.Duration
	var oasisHits, swHits, blastHits int
	fmt.Printf("%-8s %-6s | %-18s %-18s %-18s\n", "query", "len", "OASIS (hits,time)", "S-W (hits,time)", "BLAST (hits,time)")
	for _, q := range queries {
		opts, err := oasis.NewSearchOptions(scheme, db, q.Residues, oasis.WithEValue(*eValue))
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		oh, err := eng.SearchAll(context.Background(), q.Residues, opts)
		if err != nil {
			log.Fatal(err)
		}
		ot := time.Since(start)

		start = time.Now()
		sh, err := oasis.SmithWaterman(db, q.Residues, scheme, opts.MinScore)
		if err != nil {
			log.Fatal(err)
		}
		st := time.Since(start)

		start = time.Now()
		bh, err := heuristic.Search(q.Residues, nil)
		if err != nil {
			log.Fatal(err)
		}
		bt := time.Since(start)

		fmt.Printf("%-8s %-6d | %5d %-12s %5d %-12s %5d %-12s\n",
			q.ID, len(q.Residues),
			len(oh), ot.Round(time.Microsecond),
			len(sh), st.Round(time.Microsecond),
			len(bh), bt.Round(time.Microsecond))

		oasisTotal += ot
		swTotal += st
		blastTotal += bt
		oasisHits += len(oh)
		swHits += len(sh)
		blastHits += len(bh)
	}

	fmt.Printf("\ntotals: OASIS %s (%d hits), S-W %s (%d hits), BLAST %s (%d hits)\n",
		oasisTotal.Round(time.Millisecond), oasisHits,
		swTotal.Round(time.Millisecond), swHits,
		blastTotal.Round(time.Millisecond), blastHits)
	if oasisTotal > 0 {
		fmt.Printf("S-W / OASIS speedup: %.1fx\n", float64(swTotal)/float64(oasisTotal))
	}
	if blastHits > 0 {
		fmt.Printf("additional matches found by OASIS over the heuristic: %.1f%%\n",
			100*float64(oasisHits-blastHits)/float64(blastHits))
	}
	fmt.Println("\nOASIS and S-W report identical hit sets (both are exact); the heuristic may miss matches.")
}
