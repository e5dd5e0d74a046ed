package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/workload"
	"repro/oasis"
)

// hitLine matches the hit lines of every -algo: rank, sequence ID, score.
var hitLine = regexp.MustCompile(`(?m)^ *\d+  (\S+) +score=(\d+)`)

type idScore struct {
	id    string
	score int
}

// hits extracts the (seq_id, score) list a run printed, checks it is in
// non-increasing score order, and returns it with equal-score ties ordered by
// ID (shards may interleave ties differently).
func hits(t *testing.T, out string) []idScore {
	t.Helper()
	var hs []idScore
	for _, m := range hitLine.FindAllStringSubmatch(out, -1) {
		score, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatal(err)
		}
		if n := len(hs); n > 0 && score > hs[n-1].score {
			t.Fatalf("score %d after %d: not decreasing\n%s", score, hs[n-1].score, out)
		}
		hs = append(hs, idScore{m[1], score})
	}
	slices.SortStableFunc(hs, func(a, b idScore) int {
		if a.score != b.score {
			return b.score - a.score
		}
		return strings.Compare(a.id, b.id)
	})
	return hs
}

// TestSearchPathsAgree drives run over one corpus through both ways of
// searching it with OASIS — a sharded index directory and an in-memory engine
// built from the FASTA — and holds each to the Smith-Waterman baseline's
// (seq_id, score) list.
func TestSearchPathsAgree(t *testing.T) {
	cfg := workload.DefaultProteinConfig(20_000)
	cfg.Seed = 41
	db, motifs, err := workload.ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fasta := filepath.Join(dir, "corpus.fasta")
	if err := seq.WriteFASTAFile(fasta, db, 60); err != nil {
		t.Fatal(err)
	}
	bySequence := filepath.Join(dir, "seq.idx")
	if _, _, err := oasis.BuildShardedDiskIndex(bySequence, db, oasis.ShardedIndexBuildOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}

	base := config{algo: "oasis", alphabet: "protein", matrix: "PAM30", gap: -10, eValue: 20000, poolMB: 4,
		query: oasis.Protein.Decode(motifs[0].Residues[:12])}
	search := func(mod func(*config)) []idScore {
		t.Helper()
		c := base
		mod(&c)
		var out bytes.Buffer
		if err := run(c, &out); err != nil {
			t.Fatal(err)
		}
		return hits(t, out.String())
	}
	want := search(func(c *config) { c.algo, c.dbPath = "sw", fasta })
	if len(want) < 3 {
		t.Fatalf("Smith-Waterman found only %d hits; the comparison needs a real list", len(want))
	}
	for name, mod := range map[string]func(*config){
		"-index-dir": func(c *config) { c.indexDir = bySequence },
		"-db":        func(c *config) { c.dbPath = fasta },
	} {
		if got := search(mod); !slices.Equal(got, want) {
			t.Errorf("%s: %d hits %v\nSmith-Waterman: %d hits %v", name, len(got), got, len(want), want)
		}
	}
	// -top truncates the same stream.
	top := search(func(c *config) { c.indexDir, c.top = bySequence, 2 })
	if len(top) != 2 || top[0].score != want[0].score || top[1].score != want[1].score {
		t.Errorf("-top 2 printed %v, want the two best scores of %v", top, want[:2])
	}
}

// TestFlagConflicts: command lines that contradict themselves are errors that
// name the flags, before any index is opened.
func TestFlagConflicts(t *testing.T) {
	ok := config{algo: "oasis", alphabet: "protein", matrix: "PAM30", gap: -10, query: "DKDGDGCITTKEL"}
	for _, tc := range []struct {
		name string
		mod  func(*config)
		want string
	}{
		{"unknown alphabet", func(c *config) { c.alphabet = "rna" }, "unknown alphabet"},
		{"unknown matrix", func(c *config) { c.matrix = "PAM31" }, "unknown matrix"},
		{"unknown algorithm", func(c *config) { c.algo = "fasta" }, "unknown algorithm"},
		{"-index-dir with sw", func(c *config) { c.indexDir, c.algo = "x.idx", "sw" }, "-index-dir requires -algo oasis"},
		{"-index-dir with -db", func(c *config) { c.indexDir, c.dbPath = "x.idx", "x.fasta" }, "mutually exclusive"},
		{"no query", func(c *config) { c.query, c.dbPath = "", "x.fasta" }, "no queries"},
		{"oasis without an index", func(c *config) {}, "-index-dir or -db is required"},
		{"sw without -db", func(c *config) { c.algo = "sw" }, "-db is required for -algo sw"},
		{"blast without -db", func(c *config) { c.algo = "blast" }, "-db is required for -algo blast"},
		{"negative -top", func(c *config) { c.indexDir, c.top = "x.idx", -5 }, "-top must not be negative"},
		{"negative -minscore", func(c *config) { c.indexDir, c.minScore = "x.idx", -3 }, "-minscore must not be negative"},
		{"negative -pool", func(c *config) { c.indexDir, c.poolMB = "x.idx", -1 }, "-pool must not be negative"},
	} {
		c := ok
		tc.mod(&c)
		var out bytes.Buffer
		err := run(c, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%s: printed %q before failing", tc.name, out.String())
		}
	}
}

// TestIndexDirRefusesPrefixDirectory: -index-dir over a directory an older
// build wrote with prefix partitioning fails before printing anything, naming
// the rebuild.
func TestIndexDirRefusesPrefixDirectory(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.Protein, "DKDGDGCITTKEL", "ACDEFGHIKLMNPQRSTVWY", "MKTAYIAKQR")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "prefix.idx")
	if _, _, err := oasis.BuildShardedDiskIndex(dir, db, oasis.ShardedIndexBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, bytes.Replace(data, []byte(`"sequence"`), []byte(`"prefix"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(config{algo: "oasis", alphabet: "protein", matrix: "PAM30", gap: -10, query: "DKDGDGCITTKEL", indexDir: dir}, &out)
	if want := "rebuild the index with oasis-build -shards 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("-index-dir over a prefix directory: %v, want an error containing %q", err, want)
	}
	if out.Len() > 0 {
		t.Fatalf("printed %q before failing", out.String())
	}
}
