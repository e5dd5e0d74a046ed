// Command oasis-build constructs the on-disk OASIS suffix-tree index for a
// sequence database.
//
// The database can come from a FASTA file or be generated synthetically
// (the SWISS-PROT / Drosophila stand-in workloads of internal/workload):
//
//	oasis-build -in swissprot.fasta -alphabet protein -out swissprot.idx
//	oasis-build -synthetic 2000000 -alphabet protein -out synthetic.idx
//	oasis-build -synthetic 5000000 -alphabet dna -out dna.idx
//
// The output is an index DIRECTORY: one shard-K.oasis file per disjoint
// sequence subset plus a manifest.json recording the partition, which
// oasis-serve and oasis-search open with -index-dir.  -shards N (default 1,
// the paper's single suffix tree) is the one place a shard count is chosen:
// every reader takes it from the manifest, and each shard is searched through
// its own buffer pool, so shard parallelism also parallelises I/O:
//
//	oasis-build -in swissprot.fasta -shards 4 -out swissprot.idx
//
// A prefix-partitioned directory, which older builds could write, is refused
// by every reader, -verify included; rebuild it with -shards N.
//
// -verify deep-scrubs an existing index directory instead of building one:
// every checksummed block is re-read and compared against the stored CRC32C
// table, and the index is structurally opened.  The exit status is non-zero
// when corruption is found:
//
//	oasis-build -verify swissprot.idx
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
		outPath   = flag.String("out", "database.idx", "output index directory")
		alphabet  = flag.String("alphabet", "protein", "sequence alphabet: protein or dna")
		blockSize = flag.Int("block", 2048, "index block size in bytes")
		shards    = flag.Int("shards", 1, "number of sequence-disjoint shards, one index file each (every reader takes the count from the directory's manifest)")
		seed      = flag.Int64("seed", 1309, "seed for synthetic generation")
		fastaOut  = flag.String("fasta-out", "", "also write the (synthetic) database as FASTA to this path")
		verify    = flag.String("verify", "", "deep-scrub an existing index directory instead of building (exit 1 on corruption)")
	)
	flag.Parse()

	if *verify != "" {
		runVerify(*verify)
		return
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be at least 1, got %d", *shards))
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

	manifest, stats, err := oasis.BuildShardedDiskIndex(*outPath, db, oasis.ShardedIndexBuildOptions{
		BlockSize: *blockSize,
		Shards:    *shards,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("index: %s (%d shards)\n", *outPath, len(manifest.Shards))
	var total int64
	for i, st := range stats {
		fmt.Printf("  %-16s %d internal nodes, %d leaves, %d bytes (%.2f bytes per symbol)\n",
			manifest.Shards[i].File, st.NumInternal, st.NumLeaves, st.FileBytes, st.BytesPerSymbol)
		total += st.FileBytes
	}
	fmt.Printf("  total:           %d bytes; serve with -index-dir %s\n", total, *outPath)
}

// runVerify deep-scrubs an index directory and exits non-zero when corruption
// is found.
func runVerify(path string) {
	rep, err := oasis.VerifyIndexDir(path)
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
