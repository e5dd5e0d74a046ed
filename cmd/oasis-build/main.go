// Command oasis-build constructs the on-disk OASIS suffix-tree index for a
// sequence database.
//
// The database can come from a FASTA file or be generated synthetically
// (the SWISS-PROT / Drosophila stand-in workloads of internal/workload):
//
//	oasis-build -in swissprot.fasta -alphabet protein -out swissprot.oasis
//	oasis-build -synthetic 2000000 -alphabet protein -out synthetic.oasis
//	oasis-build -synthetic 5000000 -alphabet dna -out dna.oasis
//
// With -shards N the output is a SHARDED index: -out names a directory that
// receives one shard-K.oasis file per disjoint sequence subset plus a
// manifest.json recording the partition, and oasis-serve/oasis-search open it
// with -index-dir — each shard is then searched through its own buffer pool,
// so shard parallelism also parallelises I/O:
//
//	oasis-build -in swissprot.fasta -shards 4 -out swissprot.idx
//
// A prefix-partitioned directory, which older builds could write, is refused
// by every reader, -verify included; rebuild it with -shards N.
//
// -verify deep-scrubs an existing index instead of building one: every
// checksummed block is re-read and compared against the stored CRC32C table,
// and the index is structurally opened.  The exit status is non-zero when
// corruption is found:
//
//	oasis-build -verify swissprot.oasis
//	oasis-build -verify swissprot.idx      # sharded directory
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/seq"
	"repro/internal/workload"
	"repro/oasis"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input FASTA file (mutually exclusive with -synthetic)")
		synthetic = flag.Int64("synthetic", 0, "generate a synthetic database with ~this many residues")
		outPath   = flag.String("out", "database.oasis", "output index path")
		alphabet  = flag.String("alphabet", "protein", "sequence alphabet: protein or dna")
		blockSize = flag.Int("block", 2048, "index block size in bytes")
		shards    = flag.Int("shards", 0, "write a sharded index: -out becomes a directory with one shard file per shard plus manifest.json (0 = single-file index)")
		seed      = flag.Int64("seed", 1309, "seed for synthetic generation")
		fastaOut  = flag.String("fasta-out", "", "also write the (synthetic) database as FASTA to this path")
		verify    = flag.String("verify", "", "deep-scrub an existing index file or sharded index directory instead of building (exit 1 on corruption)")
	)
	flag.Parse()

	if *verify != "" {
		runVerify(*verify)
		return
	}

	alpha, err := alphabetByName(*alphabet)
	if err != nil {
		fatal(err)
	}
	db, err := loadDatabase(*inPath, *synthetic, alpha, *seed)
	if err != nil {
		fatal(err)
	}
	st := db.ComputeStats()
	fmt.Printf("database: %d sequences, %d residues (lengths %d-%d, mean %.1f)\n",
		st.NumSequences, st.TotalResidues, st.MinLength, st.MaxLength, st.MeanLength)

	if *fastaOut != "" {
		if err := seq.WriteFASTAFile(*fastaOut, db, 60); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote database FASTA to %s\n", *fastaOut)
	}

	if *shards > 0 {
		manifest, stats, err := oasis.BuildShardedDiskIndex(*outPath, db, oasis.ShardedIndexBuildOptions{
			BlockSize: *blockSize,
			Shards:    *shards,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sharded index: %s (%d shards)\n", *outPath, manifest.Shards)
		var total int64
		for i, st := range stats {
			fmt.Printf("  %-16s %d internal nodes, %d leaves, %d bytes\n",
				manifest.ShardFiles[i], st.NumInternal, st.NumLeaves, st.FileBytes)
			total += st.FileBytes
		}
		fmt.Printf("  total:           %d bytes; serve with -index-dir %s\n", total, *outPath)
		return
	}
	buildStats, err := oasis.BuildDiskIndex(*outPath, db, oasis.IndexBuildOptions{BlockSize: *blockSize})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("index: %s\n", *outPath)
	fmt.Printf("  internal nodes: %d\n", buildStats.NumInternal)
	fmt.Printf("  leaves:         %d\n", buildStats.NumLeaves)
	fmt.Printf("  file size:      %d bytes (%.2f bytes per symbol)\n", buildStats.FileBytes, buildStats.BytesPerSymbol)
}

// runVerify deep-scrubs an index file or sharded index directory and exits
// non-zero when corruption is found.
func runVerify(path string) {
	fi, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	var rep *oasis.VerifyReport
	if fi.IsDir() {
		rep, err = oasis.VerifyIndexDir(path)
	} else {
		rep, err = oasis.VerifyDiskIndex(path)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verify: %s: %d file(s), %d checksummed block(s)\n", path, rep.Files, rep.Blocks)
	if rep.OK() {
		fmt.Println("  OK")
		return
	}
	for _, p := range rep.Problems {
		fmt.Printf("  CORRUPT %s block %d offset %d: %s\n", p.File, p.Block, p.Offset, p.Detail)
	}
	os.Exit(1)
}

func alphabetByName(name string) (*oasis.Alphabet, error) {
	switch name {
	case "protein":
		return oasis.Protein, nil
	case "dna":
		return oasis.DNA, nil
	default:
		return nil, fmt.Errorf("unknown alphabet %q (want protein or dna)", name)
	}
}

func loadDatabase(inPath string, synthetic int64, alpha *oasis.Alphabet, seed int64) (*oasis.Database, error) {
	switch {
	case inPath != "" && synthetic > 0:
		return nil, fmt.Errorf("-in and -synthetic are mutually exclusive")
	case inPath != "":
		return oasis.LoadFASTA(inPath, alpha)
	case synthetic > 0:
		if alpha == oasis.DNA {
			cfg := workload.DefaultDNAConfig(synthetic)
			cfg.Seed = seed
			return workload.DNADatabase(cfg)
		}
		cfg := workload.DefaultProteinConfig(synthetic)
		cfg.Seed = seed
		db, _, err := workload.ProteinDatabase(cfg)
		return db, err
	default:
		return nil, fmt.Errorf("either -in or -synthetic is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oasis-build:", err)
	os.Exit(1)
}
