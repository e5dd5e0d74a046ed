// Command oasis-search runs local-alignment searches against an OASIS disk
// index directory (or an in-memory index built from a FASTA database, which
// the baselines search too).
//
// Examples:
//
//	# OASIS search of a peptide against a prebuilt index directory
//	# (oasis-build -out swissprot.idx), top 10 results; the directory's
//	# shards are searched at once, each through its own buffer pool
//	oasis-search -index-dir swissprot.idx -query DKDGDGCITTKEL -evalue 20000 -top 10
//
//	# OASIS over an in-memory index built from FASTA
//	oasis-search -db swissprot.fasta -query DKDGDGCITTKEL
//
//	# Exact Smith-Waterman baseline over a FASTA database
//	oasis-search -db swissprot.fasta -algo sw -query DKDGDGCITTKEL -minscore 45
//
//	# Heuristic BLAST-style baseline
//	oasis-search -db swissprot.fasta -algo blast -queryfile peptides.fasta
//
// The shard count is the index directory's, chosen by oasis-build -shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/seq"
	"repro/oasis"
)

type config struct {
	indexDir  string
	dbPath    string
	algo      string
	query     string
	queryFile string
	alphabet  string
	matrix    string
	gap       int
	eValue    float64
	minScore  int
	top       int
	poolMB    int64
	verbose   bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.indexDir, "index-dir", "", "OASIS index directory (oasis-build); searched with one buffer pool per shard")
	flag.StringVar(&cfg.dbPath, "db", "", "FASTA database (required for -algo sw/blast; with -algo oasis, indexed in memory)")
	flag.StringVar(&cfg.algo, "algo", "oasis", "search algorithm: oasis, sw or blast")
	flag.StringVar(&cfg.query, "query", "", "query residues on the command line")
	flag.StringVar(&cfg.queryFile, "queryfile", "", "FASTA file of queries")
	flag.StringVar(&cfg.alphabet, "alphabet", "protein", "alphabet: protein or dna")
	flag.StringVar(&cfg.matrix, "matrix", "PAM30", "substitution matrix (PAM30, BLOSUM62, PAM250, UNIT, BLASTN)")
	flag.IntVar(&cfg.gap, "gap", -10, "linear gap penalty (negative)")
	flag.Float64Var(&cfg.eValue, "evalue", 20000, "E-value threshold (paper Equation 2)")
	flag.IntVar(&cfg.minScore, "minscore", 0, "explicit minimum score (overrides -evalue)")
	flag.IntVar(&cfg.top, "top", 0, "report only the top-k sequences (0 = all)")
	flag.Int64Var(&cfg.poolMB, "pool", 256, "buffer pool size in MB per shard (with -index-dir)")
	flag.BoolVar(&cfg.verbose, "v", false, "print full alignments")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oasis-search:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	alpha := oasis.Protein
	if cfg.alphabet == "dna" {
		alpha = oasis.DNA
	} else if cfg.alphabet != "protein" {
		return fmt.Errorf("unknown alphabet %q", cfg.alphabet)
	}
	matrix := oasis.MatrixByName(cfg.matrix)
	if matrix == nil {
		return fmt.Errorf("unknown matrix %q", cfg.matrix)
	}
	scheme, err := oasis.NewScheme(matrix, cfg.gap)
	if err != nil {
		return err
	}
	// A negative count would otherwise mean "no limit" (-top), "use the
	// E-value" (-minscore) or "the default pool" (-pool).
	for _, f := range []struct {
		name  string
		value int64
	}{{"-top", int64(cfg.top)}, {"-minscore", int64(cfg.minScore)}, {"-pool", cfg.poolMB}} {
		if f.value < 0 {
			return fmt.Errorf("%s must not be negative, got %d", f.name, f.value)
		}
	}
	// The -index-dir path defers query loading: the manifest, not the
	// -alphabet flag, determines the encoding alphabet there.
	if cfg.indexDir != "" {
		if cfg.algo != "oasis" {
			return fmt.Errorf("-index-dir requires -algo oasis")
		}
		if cfg.dbPath != "" {
			return fmt.Errorf("-index-dir and -db are mutually exclusive")
		}
		return runDisk(cfg, scheme, w)
	}
	queries, err := loadQueries(cfg, alpha)
	if err != nil {
		return err
	}
	switch cfg.algo {
	case "oasis":
		return runMemory(cfg, alpha, scheme, queries, w)
	case "sw":
		return runSW(cfg, alpha, scheme, queries, w)
	case "blast":
		return runBLAST(cfg, alpha, scheme, queries, w)
	default:
		return fmt.Errorf("unknown algorithm %q", cfg.algo)
	}
}

// loadQueries gathers -query and -queryfile; no query at all is an error.
func loadQueries(cfg config, alpha *oasis.Alphabet) ([]oasis.Sequence, error) {
	var out []oasis.Sequence
	if cfg.query != "" {
		s, err := seq.NewSequence(alpha, "cmdline", "", cfg.query)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if cfg.queryFile != "" {
		db, err := oasis.LoadFASTA(cfg.queryFile, alpha)
		if err != nil {
			return nil, err
		}
		out = append(out, db.Sequences()...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no queries: use -query or -queryfile")
	}
	return out, nil
}

// runDisk opens a prebuilt index directory (oasis-build) and searches every
// query through the order-preserving merge of its shards, each reading
// through its own buffer pool.  Queries are encoded with the MANIFEST's
// alphabet (the -alphabet flag is ignored here: encoding with the wrong
// alphabet would silently search for different residues).
func runDisk(cfg config, scheme oasis.Scheme, w io.Writer) error {
	open := time.Now()
	eng, err := oasis.OpenEngine(cfg.indexDir, oasis.EngineOptions{PoolBytes: cfg.poolMB << 20})
	if err != nil {
		return err
	}
	defer eng.Close()
	alpha := eng.Alphabet()
	if scheme.Matrix.Alphabet() != alpha {
		return fmt.Errorf("matrix %q is over the %s alphabet, but the index at %s holds %s sequences",
			cfg.matrix, scheme.Matrix.Alphabet().Name(), cfg.indexDir, alpha.Name())
	}
	queries, err := loadQueries(cfg, alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# disk index: %s, %d shards, %s alphabet, opened in %s\n",
		cfg.indexDir, eng.NumShards(), alpha.Name(), time.Since(open).Round(time.Millisecond))
	return searchAll(cfg, scheme, queries, w, eng)
}

// runMemory builds a one-shard in-memory engine from the FASTA database and
// searches every query with it.
func runMemory(cfg config, alpha *oasis.Alphabet, scheme oasis.Scheme, queries []oasis.Sequence, w io.Writer) error {
	if cfg.dbPath == "" {
		return fmt.Errorf("-index-dir or -db is required for -algo oasis")
	}
	db, err := oasis.LoadFASTA(cfg.dbPath, alpha)
	if err != nil {
		return err
	}
	build := time.Now()
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Fprintf(w, "# in-memory index built in %s\n", time.Since(build).Round(time.Millisecond))
	return searchAll(cfg, scheme, queries, w, eng)
}

// searchAll is the OASIS query loop: every query against the engine, hits
// printed online as they arrive, then the work-counter footer.  The catalog
// supplies the database size for E-value thresholds and residues for -v.
func searchAll(cfg config, scheme oasis.Scheme, queries []oasis.Sequence, w io.Writer, eng *oasis.Engine) error {
	cat := eng.Catalog()
	for _, q := range queries {
		var st oasis.SearchStats
		threshold := oasis.WithEValue(cfg.eValue)
		if cfg.minScore > 0 {
			threshold = oasis.WithMinScore(cfg.minScore)
		}
		opts, err := oasis.NewSearchOptionsSized(scheme, cat.TotalResidues(), q.Residues,
			threshold, oasis.WithMaxResults(cfg.top), oasis.WithStats(&st))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# query %s (%d residues), minScore %d\n", q.ID, q.Len(), opts.MinScore)
		start := time.Now()
		n := 0
		err = eng.Search(context.Background(), q.Residues, opts, func(h oasis.Hit) bool {
			n++
			fmt.Fprintf(w, "%4d  %-24s score=%-6d E=%-12.3g t=%s\n",
				h.Rank, h.SeqID, h.Score, h.EValue, time.Since(start).Round(time.Microsecond))
			if cfg.verbose {
				a, aErr := eng.RecoverAlignment(q.Residues, scheme, h)
				res, rErr := cat.Residues(h.SeqIndex)
				if aErr == nil && rErr == nil {
					fmt.Fprint(w, a.Format(cat.Alphabet(), q.Residues, res))
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %d sequences in %s; %d columns expanded, %d cells, %d nodes expanded\n\n",
			n, time.Since(start).Round(time.Microsecond), st.ColumnsExpanded, st.CellsComputed, st.NodesExpanded)
	}
	return nil
}

func runSW(cfg config, alpha *oasis.Alphabet, scheme oasis.Scheme, queries []oasis.Sequence, w io.Writer) error {
	if cfg.dbPath == "" {
		return fmt.Errorf("-db is required for -algo sw")
	}
	db, err := oasis.LoadFASTA(cfg.dbPath, alpha)
	if err != nil {
		return err
	}
	for _, q := range queries {
		minScore := cfg.minScore
		if minScore <= 0 {
			minScore, err = oasis.MinScoreForEValue(scheme.Matrix, cfg.eValue, q.Len(), db.TotalResidues())
			if err != nil {
				return err
			}
		}
		start := time.Now()
		hits, err := oasis.SmithWaterman(db, q.Residues, scheme, minScore)
		if err != nil {
			return err
		}
		if cfg.top > 0 && len(hits) > cfg.top {
			hits = hits[:cfg.top]
		}
		fmt.Fprintf(w, "# query %s: %d sequences (S-W, %s)\n", q.ID, len(hits), time.Since(start).Round(time.Millisecond))
		for i, h := range hits {
			fmt.Fprintf(w, "%4d  %-24s score=%d\n", i+1, h.SeqID, h.Score)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runBLAST(cfg config, alpha *oasis.Alphabet, scheme oasis.Scheme, queries []oasis.Sequence, w io.Writer) error {
	if cfg.dbPath == "" {
		return fmt.Errorf("-db is required for -algo blast")
	}
	db, err := oasis.LoadFASTA(cfg.dbPath, alpha)
	if err != nil {
		return err
	}
	searcher, err := oasis.NewBLAST(db, scheme, oasis.BLASTOptions{TwoHit: true, EValue: cfg.eValue, MaxHits: cfg.top})
	if err != nil {
		return err
	}
	for _, q := range queries {
		start := time.Now()
		hits, err := searcher.Search(q.Residues, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# query %s: %d sequences (BLAST-style heuristic, %s)\n", q.ID, len(hits), time.Since(start).Round(time.Millisecond))
		for i, h := range hits {
			fmt.Fprintf(w, "%4d  %-24s score=%-6d E=%.3g\n", i+1, h.SeqID, h.Score, h.EValue)
		}
		fmt.Fprintln(w)
	}
	return nil
}
