package diskst

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/workload"
)

func buildIndex(t *testing.T, db *seq.Database, opts BuildOptions) (*Index, *BuildStats, *bufferpool.Pool) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "index.oasis")
	st, err := Build(path, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(1<<20, 512)
	idx, err := Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx, st, pool
}

func paperDB(t *testing.T) *seq.Database {
	t.Helper()
	db, err := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildAndOpenBasics(t *testing.T) {
	db := paperDB(t)
	idx, st, _ := buildIndex(t, db, BuildOptions{})
	if st.NumLeaves != db.ConcatLen() || st.NumSequences != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if idx.NumLeaves() != db.ConcatLen() {
		t.Fatalf("NumLeaves = %d", idx.NumLeaves())
	}
	if idx.BlockSize() != DefaultBlockSize {
		t.Fatalf("BlockSize = %d", idx.BlockSize())
	}
	cat := idx.Catalog()
	if cat.NumSequences() != 1 || cat.SequenceID(0) != "seq0" || cat.SequenceLength(0) != 11 {
		t.Fatalf("catalog wrong: %d %q %d", cat.NumSequences(), cat.SequenceID(0), cat.SequenceLength(0))
	}
	if cat.Alphabet() != seq.DNA {
		t.Fatal("alphabet wrong")
	}
	if cat.TotalResidues() != 11 {
		t.Fatalf("TotalResidues = %d", cat.TotalResidues())
	}
	res, err := cat.Residues(0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.DNA.Decode(res) != "AGTACGCCTAG" {
		t.Fatalf("residues = %q", seq.DNA.Decode(res))
	}
	if _, err := cat.Residues(5); err == nil {
		t.Fatal("expected range error")
	}
}

// collectTree walks an index and produces a canonical fingerprint:
// (ref kind, depth, label, sorted leaf positions at leaves).
func collectTree(t *testing.T, idx core.Index) string {
	t.Helper()
	var sb strings.Builder
	var walk func(ref core.NodeRef, depth int, label string)
	walk = func(ref core.NodeRef, depth int, label string) {
		if ref.IsLeaf() {
			fmt.Fprintf(&sb, "L(%q,%d,%d)", label, depth, ref.LeafPos())
			return
		}
		fmt.Fprintf(&sb, "N(%q,%d)[", label, depth)
		type child struct {
			ref   core.NodeRef
			label string
		}
		var kids []child
		if err := idx.VisitChildren(ref, depth, func(c core.NodeRef, label []byte) error {
			kids = append(kids, child{ref: c, label: string(label)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Child order differs between the memory adapter (sorted by symbol)
		// and the disk layout (leaves first); canonicalise.
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].label != kids[j].label {
				return kids[i].label < kids[j].label
			}
			return kids[i].ref < kids[j].ref
		})
		for _, k := range kids {
			walk(k.ref, depth+len(k.label), k.label)
		}
		sb.WriteString("]")
	}
	walk(idx.Root(), 0, "")
	return sb.String()
}

func TestDiskIndexMatchesMemoryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]string{
		{"AGTACGCCTAG"},
		{"ACGT", "ACGT"},
		{"A"},
		{"GATTACA", "TTTT", "AG", "CAGTCAGT"},
	}
	for i := 0; i < 4; i++ {
		var c []string
		for j := 0; j < 1+rng.Intn(4); j++ {
			c = append(c, randomDNA(rng, 1+rng.Intn(50)))
		}
		cases = append(cases, c)
	}
	for ci, c := range cases {
		db, err := seq.DatabaseFromStrings(seq.DNA, c...)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := core.BuildMemoryIndex(db)
		if err != nil {
			t.Fatal(err)
		}
		idx, _, _ := buildIndex(t, db, BuildOptions{})
		got := collectTree(t, idx)
		want := collectTree(t, mem)
		if got != want {
			t.Fatalf("case %d: disk tree differs from memory tree\n got: %s\nwant: %s", ci, got, want)
		}
	}
}

func TestLeafPositionsMatchMemory(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "GATTACAGATTACA", "CCGGAACC")
	if err != nil {
		t.Fatal(err)
	}
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	mem, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(x core.Index) []int64 {
		var out []int64
		if err := x.LeafPositions(x.Root(), func(pos int64) bool {
			out = append(out, pos)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	got, want := collect(idx), collect(mem)
	if len(got) != len(want) {
		t.Fatalf("leaf count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("leaf %d: %d != %d", i, got[i], want[i])
		}
	}
	// Early stop must also work.
	n := 0
	if err := idx.LeafPositions(idx.Root(), func(pos int64) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d leaves", n)
	}
}

func TestLeafPositionsOfLeafRef(t *testing.T) {
	db := paperDB(t)
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	var got []int64
	if err := idx.LeafPositions(core.LeafRef(3), func(pos int64) bool {
		got = append(got, pos)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestCatalogLocate(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT", "GG")
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	cat := idx.Catalog()
	si, err := cat.Locate(5)
	if err != nil || si != 1 {
		t.Fatalf("Locate(5) = %d,%v", si, err)
	}
	if _, err := cat.Locate(-1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := cat.Locate(100); err == nil {
		t.Fatal("expected error")
	}

	// A catalog of 1-residue sequences around one long one, every position
	// (terminators included) against a plain binary search over the starts.
	rng := rand.New(rand.NewSource(9))
	var strs []string
	for i := 0; i < 60; i++ {
		strs = append(strs, randomDNA(rng, 1))
	}
	strs[17] = randomDNA(rng, 700)
	db, _ = seq.DatabaseFromStrings(seq.DNA, strs...)
	idx, _, _ = buildIndex(t, db, BuildOptions{})
	cat = idx.Catalog()
	var starts []int64
	var end int64
	for _, str := range strs {
		starts = append(starts, end)
		end += int64(len(str)) + 1
	}
	for pos := int64(0); pos < end; pos++ {
		want := sort.Search(len(starts), func(i int) bool { return starts[i] > pos }) - 1
		si, err := cat.Locate(pos)
		if err != nil || si != want {
			t.Fatalf("Locate(%d) = (%d,%v), want %d", pos, si, err, want)
		}
	}
}

func TestBuildStatsSpaceUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var strsCase []string
	for i := 0; i < 20; i++ {
		strsCase = append(strsCase, randomDNA(rng, 100+rng.Intn(200)))
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
	if err != nil {
		t.Fatal(err)
	}
	idx, st, _ := buildIndex(t, db, BuildOptions{})
	if st.BytesPerSymbol <= 0 || st.BytesPerSymbol > 40 {
		t.Fatalf("implausible bytes per symbol: %v", st.BytesPerSymbol)
	}
	if st.FileBytes < st.SymbolsBytes+st.InternalBytes+st.LeafBytes {
		t.Fatalf("file smaller than its regions: %+v", st)
	}
	st2 := idx.Stats()
	if st2.NumInternal != st.NumInternal || st2.SymbolsBytes != st.SymbolsBytes {
		t.Fatalf("reader stats disagree with writer stats: %+v vs %+v", st2, st)
	}
}

func TestSmallBlockSizes(t *testing.T) {
	small, _ := seq.DatabaseFromStrings(seq.DNA, "GATTACAGATTACA", "CCGG")
	for _, tc := range []struct {
		db        *seq.Database
		sizes     []int
		straddles bool // runs and record pairs of db cross pages at these sizes
	}{
		{small, []int{128, 256, 2048, 4096}, false},
		{straddleCorpus(t), []int{512, 2048}, true},
	} {
		mem, _ := core.BuildMemoryIndex(tc.db)
		want := collectTree(t, mem)
		for _, bs := range tc.sizes {
			dir := t.TempDir()
			path := filepath.Join(dir, "idx")
			if _, err := Build(path, tc.db, BuildOptions{BlockSize: bs}); err != nil {
				t.Fatalf("block size %d: %v", bs, err)
			}
			pool := bufferpool.New(1<<20, bs)
			idx, err := Open(path, pool)
			if err != nil {
				t.Fatalf("block size %d: %v", bs, err)
			}
			if tc.straddles {
				requireStraddles(t, idx)
			}
			if collectTree(t, idx) != want {
				t.Fatalf("block size %d: tree mismatch", bs)
			}
			idx.Close()
		}
	}
}

func TestInvalidBlockSizeRejected(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	dir := t.TempDir()
	if _, err := Build(filepath.Join(dir, "x"), db, BuildOptions{BlockSize: 100}); err == nil {
		t.Fatal("expected error for non-multiple-of-16 block size")
	}
	if _, err := Build(filepath.Join(dir, "y"), db, BuildOptions{BlockSize: 48}); err == nil {
		t.Fatal("expected error for block size below header size")
	}
	if _, err := Build(filepath.Join(dir, "z"), nil, BuildOptions{}); err == nil {
		t.Fatal("expected error for nil database")
	}
	if _, err := Write(filepath.Join(dir, "w"), nil, BuildOptions{}); err == nil {
		t.Fatal("expected error for nil tree")
	}
}

func TestOpenErrors(t *testing.T) {
	pool := bufferpool.New(1<<20, 512)
	if _, err := Open("/nonexistent/index", pool); err == nil {
		t.Fatal("expected error for missing file")
	}
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	dir := t.TempDir()
	path := filepath.Join(dir, "idx")
	if _, err := Build(path, db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatal("expected error for nil pool")
	}
	// Corrupt the magic and confirm Open rejects it.
	if err := corruptFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, pool); err == nil {
		t.Fatal("expected error for corrupt header")
	}
}

func TestBufferPoolStatsAttribution(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "GATTACAGATTACAGATTACA", "CCGGAACCGGTT")
	idx, _, pool := buildIndex(t, db, BuildOptions{})
	// LeafPositions reads the internal and leaf regions through the pool.
	if err := idx.LeafPositions(idx.Root(), func(int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if pool.Stats(idx.InternalFile()).Requests == 0 {
		t.Fatal("no internal-node page requests recorded")
	}
	if pool.Stats(idx.LeavesFile()).Requests == 0 {
		t.Fatal("no leaf page requests recorded")
	}
	// Reading every label makes no pool request: the symbols are resident,
	// and the ID SymbolsFile returns is one the pool never registered.
	var walk func(ref core.NodeRef, depth int)
	walk = func(ref core.NodeRef, depth int) {
		err := idx.VisitChildren(ref, depth, func(c core.NodeRef, label []byte) error {
			before := pool.Totals()
			read := string(label)
			if after := pool.Totals(); after != before {
				t.Fatalf("reading the label above %v made pool requests: %+v, then %+v", c, before, after)
			}
			walk(c, depth+len(read))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk(idx.Root(), 0)
	if st := pool.Stats(idx.SymbolsFile()); st != (bufferpool.FileStats{}) {
		t.Fatalf("symbols file reports %+v, want zero", st)
	}
	if _, err := idx.Catalog().Residues(0); err != nil {
		t.Fatal(err)
	}
	if got, want := pool.Totals(), pool.Stats(idx.InternalFile()).Requests+pool.Stats(idx.LeavesFile()).Requests; got.Requests != want {
		t.Fatalf("pool served %d requests, the internal and leaf regions %d", got.Requests, want)
	}

	// The locality the format exists for, on a corpus large enough to have
	// one (100,000 residues, a 1 MB file): searches behind a pool a quarter
	// of the file's size find the leaves region resident, because a node's
	// leaf children are one run and the runs of the shallow nodes every
	// query expands share the region's first pages.  (Indexed by position
	// and chained by sibling pointers it was the worst component: 0.38 here.)
	protein, motifs, err := workload.ProteinDatabase(workload.DefaultProteinConfig(100_000))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.MotifQueries(protein, motifs, workload.DefaultQueryConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "protein.oasis")
	st, err := Build(path, protein, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := Open(path, bufferpool.New(st.FileBytes/4, DefaultBlockSize))
	if err != nil {
		t.Fatal(err)
	}
	defer quarter.Close()
	opts := core.Options{Scheme: score.MustScheme(score.PAM30(), -10), MinScore: 35, MaxResults: 10}
	for _, q := range queries {
		if _, err := core.SearchAll(quarter, q.Residues, opts); err != nil {
			t.Fatal(err)
		}
	}
	if st := quarter.Pool().Stats(quarter.LeavesFile()); st.HitRatio() < 0.9 {
		t.Fatalf("leaves region behind a quarter-size pool: hit ratio %.3f over %d requests, want >= 0.9", st.HitRatio(), st.Requests)
	}
}

func TestVisitChildrenOnLeafIsNoop(t *testing.T) {
	db := paperDB(t)
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	called := false
	if err := idx.VisitChildren(core.LeafRef(0), 0, func(core.NodeRef, []byte) error {
		called = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("leaf should have no children")
	}
}

func corruptFile(path string) error {
	f, err := openRW(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt([]byte("BADMAGIC"), 0)
	return err
}

func randomDNA(rng *rand.Rand, n int) string {
	return randomStrings(rng, "ACGT", 1, func() int { return n })[0]
}
