// Nucleotide search: the paper's second data set is the Drosophila genomic
// nucleotide collection.  This example generates a repeat-rich synthetic
// stand-in, builds the disk index, and searches short DNA probes with OASIS
// and Smith-Waterman using the unit edit-distance matrix of the paper's
// Table 1, confirming that the two agree while OASIS expands far fewer
// dynamic-programming columns.
//
//	go run ./examples/nucleotide [-residues 400000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/align"
	"repro/internal/workload"
	"repro/oasis"
)

func main() {
	residues := flag.Int64("residues", 400_000, "approximate database size in nucleotides")
	nQueries := flag.Int("queries", 8, "number of DNA probe queries")
	flag.Parse()

	cfg := workload.DefaultDNAConfig(*residues)
	db, err := workload.DNADatabase(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nucleotide database: %d sequences, %d bases\n", db.NumSequences(), db.TotalResidues())

	dir, err := os.MkdirTemp("", "oasis-dna-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	indexDir := filepath.Join(dir, "dna.idx")
	_, st, err := oasis.BuildShardedDiskIndex(indexDir, db, oasis.ShardedIndexBuildOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %.2f bytes/base\n\n", st[0].BytesPerSymbol)
	eng, err := oasis.OpenEngine(indexDir, oasis.EngineOptions{PoolBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Probes: short subsequences of the database with a couple of mutations,
	// like primer / probe design workloads.
	rng := rand.New(rand.NewSource(7))
	var probes [][]byte
	for i := 0; i < *nQueries; i++ {
		s := db.Sequence(rng.Intn(db.NumSequences())).Residues
		l := 12 + rng.Intn(14)
		start := rng.Intn(len(s) - l)
		probe := append([]byte(nil), s[start:start+l]...)
		probe[rng.Intn(l)] = byte(rng.Intn(4))
		probes = append(probes, probe)
	}

	// The paper's Table 1 unit matrix: +1 match, -1 mismatch, -1 gap.
	scheme, err := oasis.NewScheme(oasis.MatrixByName("UNIT"), -1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %-6s %-10s | %-22s %-22s %-10s\n", "probe", "len", "minScore", "OASIS (hits, time, cols)", "S-W (hits, time, cols)", "agree")
	for i, probe := range probes {
		minScore := len(probe) * 3 / 4 // require a strong (75%) match
		var ost oasis.SearchStats
		opts := oasis.SearchOptions{Scheme: scheme, MinScore: minScore, Stats: &ost}

		startT := time.Now()
		oh, err := eng.SearchAll(context.Background(), probe, opts)
		if err != nil {
			log.Fatal(err)
		}
		ot := time.Since(startT)

		var sst align.Stats
		startT = time.Now()
		sh, err := align.SearchDatabase(db, probe, scheme, align.Options{MinScore: minScore, Stats: &sst})
		if err != nil {
			log.Fatal(err)
		}
		swt := time.Since(startT)

		// Compare the two result sets by (sequence, score); the streaming
		// order of equal-scoring sequences may legitimately differ.
		agree := len(oh) == len(sh)
		if agree {
			want := map[int]int{}
			for _, h := range sh {
				want[h.SeqIndex] = h.Score
			}
			for _, h := range oh {
				if want[h.SeqIndex] != h.Score {
					agree = false
					break
				}
			}
		}
		fmt.Printf("P%-7d %-6d %-10d | %4d %-10s %-8d %4d %-10s %-8d %-10v\n",
			i, len(probe), minScore,
			len(oh), ot.Round(time.Microsecond), ost.ColumnsExpanded,
			len(sh), swt.Round(time.Microsecond), sst.ColumnsExpanded,
			agree)
		if !agree {
			log.Fatal("OASIS and Smith-Waterman disagree — this should be impossible")
		}
	}
	fmt.Println("\nOASIS returned exactly the Smith-Waterman hit set for every probe while")
	fmt.Println("expanding only a small fraction of the dynamic-programming columns.")
}
