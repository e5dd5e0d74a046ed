package suffixtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/seq"
)

// paperDB returns the single-sequence database of the paper's running
// example (Figure 2): AGTACGCCTAG.
func paperDB(t *testing.T) *seq.Database {
	t.Helper()
	db, err := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// builders lists every construction algorithm under test.
var builders = map[string]func(*seq.Database) (*Tree, error){
	"ukkonen": buildUkkonen,
	"build":   Build,
}

func TestPaperExampleTreeStructure(t *testing.T) {
	db := paperDB(t)
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tree, err := build(db)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			// One leaf per position (11 residues + 1 terminator).
			if tree.NumLeaves() != 12 {
				t.Fatalf("NumLeaves = %d, want 12", tree.NumLeaves())
			}
			// Figure 2 paths: path(8L) = TAG$, path(5N) = AG.
			if !tree.Contains(seq.DNA.MustEncode("TAG")) {
				t.Fatal("TAG should be present")
			}
			if !tree.Contains(seq.DNA.MustEncode("AG")) {
				t.Fatal("AG should be present")
			}
			// TACG occurs at position 2 (paper Section 2.3.1).
			pos := tree.FindAll(seq.DNA.MustEncode("TACG"))
			if len(pos) != 1 || pos[0] != 2 {
				t.Fatalf("FindAll(TACG) = %v, want [2]", pos)
			}
			if tree.Contains(seq.DNA.MustEncode("TACGA")) {
				t.Fatal("TACGA should not be present")
			}
		})
	}
}

// builderCase is one database the builders must agree on.
type builderCase struct {
	alpha *seq.Alphabet
	seqs  []string
}

// builderCases drive SA-IS into recursion and ties: long runs, periodic
// and Fibonacci text, identical and 1-residue sequences, the empty database, protein as
// well as DNA, and random databases of both.
func builderCases() []builderCase {
	rng := rand.New(rand.NewSource(11))
	many := make([]string, 40)
	for i := range many {
		many[i] = "ACGTTGCA"
	}
	// The Fibonacci word (1,597 residues) recurses six levels deep into SA-IS.
	fib, prev := "AC", "A"
	for len(fib) < 1000 {
		fib, prev = fib+prev, fib
	}
	cases := []builderCase{
		{seq.DNA, []string{"AGTACGCCTAG"}},
		{seq.DNA, []string{"A"}},
		{seq.DNA, []string{"AAAAAAAA"}},
		{seq.DNA, []string{"ACGT", "ACGT"}},
		{seq.DNA, []string{"ACGTACGT", "TTTT", "AG"}},
		{seq.DNA, []string{"AG", "AGA", "GAG", "A"}},
		{seq.DNA, []string{strings.Repeat("A", 500)}},
		{seq.DNA, []string{strings.Repeat("AC", 300), strings.Repeat("AC", 300)}},
		{seq.DNA, []string{fib}},
		{seq.DNA, many},
		{seq.DNA, []string{"A", "C", "A", "G", "T", "A", "N", "A"}},
		{seq.DNA, nil},
		{seq.Protein, []string{"MKVLAAGIVALLLAAGCSSHHHHHH", "MKVLAAGIV", "WWWWWWWW"}},
		{seq.Protein, []string{strings.Repeat("ARND", 100), strings.Repeat("RNDA", 50), "W", "W"}},
	}
	for i := 0; i < 6; i++ {
		var dna, protein []string
		for j := 0; j < 1+rng.Intn(4); j++ {
			dna = append(dna, randomDNAString(rng, 1+rng.Intn(60)))
			protein = append(protein, randomString(rng, "ARNDCQEGHILKMFPSTWYV", 1+rng.Intn(60)))
		}
		cases = append(cases, builderCase{seq.DNA, dna}, builderCase{seq.Protein, protein})
	}
	return cases
}

// sameNodes reports the first difference between two trees: in their leaf
// or internal counts, or in their node slices, field for field.
func sameNodes(got, want *Tree) error {
	if got.numLeaves != want.numLeaves || got.numInternal != want.numInternal {
		return fmt.Errorf("%d leaves and %d internal nodes, want %d and %d",
			got.numLeaves, got.numInternal, want.numLeaves, want.numInternal)
	}
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i := range got.nodes {
		if got.nodes[i] != want.nodes[i] {
			return fmt.Errorf("node %d is %+v, want %+v", i, got.nodes[i], want.nodes[i])
		}
	}
	return nil
}

// buildersAgree builds db with buildUkkonen and Build and requires the
// second to equal the first, which it returns.
func buildersAgree(db *seq.Database) (*Tree, error) {
	ref, err := buildUkkonen(db)
	if err != nil {
		return nil, err
	}
	built, err := Build(db)
	if err != nil {
		return nil, err
	}
	if err := sameNodes(built, ref); err != nil {
		return nil, fmt.Errorf("Build: %v", err)
	}
	return ref, nil
}

func TestBuildersProduceIdenticalTrees(t *testing.T) {
	for ci, c := range builderCases() {
		db, err := seq.DatabaseFromStrings(c.alpha, c.seqs...)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := buildersAgree(db)
		if err == nil {
			err = ref.Validate()
		}
		if err != nil {
			t.Fatalf("case %d (%s, %d sequences): %v", ci, c.alpha.Name(), len(c.seqs), err)
		}
	}
}

// FuzzBuildersAgree reads data as comma-separated sequences, each byte a
// residue code modulo the alphabet size.  It leaves out Validate, whose
// path-label check is quadratic in depth, so minimising an input stays fast.
func FuzzBuildersAgree(f *testing.F) {
	for _, c := range builderCases() {
		f.Add(strings.Join(c.seqs, ","), c.alpha == seq.Protein)
	}
	f.Fuzz(func(t *testing.T, data string, protein bool) {
		if len(data) > 2048 {
			t.Skip()
		}
		alpha := seq.DNA
		if protein {
			alpha = seq.Protein
		}
		var seqs []seq.Sequence
		if data != "" {
			for i, s := range strings.Split(data, ",") {
				res := []byte(s)
				for j := range res {
					res[j] %= byte(alpha.Size())
				}
				seqs = append(seqs, seq.Sequence{ID: fmt.Sprint(i), Residues: res})
			}
		}
		db, err := seq.NewDatabase(alpha, seqs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildersAgree(db); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuildRefusesPastSymbolLimit(t *testing.T) {
	defer func(old int) { maxBuildSymbols = old }(maxBuildSymbols)
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGT", "ACGTA") // 11 symbols
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builders {
		maxBuildSymbols = 10
		if _, err := build(db); err == nil {
			t.Fatalf("%s accepted 11 symbols past a limit of 10", name)
		}
		maxBuildSymbols = 11
		if _, err := build(db); err != nil {
			t.Fatalf("%s refused 11 symbols at a limit of 11: %v", name, err)
		}
	}
}

// TestNodeIs20Bytes holds the node record to the size the memory index's
// footprint is budgeted for: no edge end and no suffix start are stored.
func TestNodeIs20Bytes(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 20 {
		t.Fatalf("node is %d bytes, want <= 20", size)
	}
}

func TestFindAllMatchesNaiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		var strsCase []string
		for j := 0; j < 1+rng.Intn(3); j++ {
			strsCase = append(strsCase, randomDNAString(rng, 5+rng.Intn(80)))
		}
		db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := buildUkkonen(db)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			pattern := seq.DNA.MustEncode(randomDNAString(rng, 1+rng.Intn(6)))
			got := append([]int64(nil), tree.FindAll(pattern)...)
			want := naiveFindAll(db, pattern)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("trial %d: FindAll(%v) = %v, naive = %v", trial, pattern, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: FindAll(%v) = %v, naive = %v", trial, pattern, got, want)
				}
			}
			if tree.Contains(pattern) != (len(want) > 0) {
				t.Fatalf("Contains disagrees with FindAll for %v", pattern)
			}
		}
	}
}

// naiveFindAll scans every sequence for exact occurrences of the pattern and
// returns global positions.
func naiveFindAll(db *seq.Database, pattern []byte) []int64 {
	var out []int64
	for i := 0; i < db.NumSequences(); i++ {
		res := db.Sequence(i).Residues
		for j := 0; j+len(pattern) <= len(res); j++ {
			match := true
			for k := range pattern {
				if res[j+k] != pattern[k] {
					match = false
					break
				}
			}
			if match {
				out = append(out, db.SequenceStart(i)+int64(j))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestLeafPositionsCoverEverySuffix(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGTACG", "GGTT", "A")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := buildUkkonen(db)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	tree.LeafPositions(tree.Root(), func(pos int64) bool {
		if seen[pos] {
			t.Fatalf("position %d reported twice", pos)
		}
		seen[pos] = true
		return true
	})
	if int64(len(seen)) != db.ConcatLen() {
		t.Fatalf("saw %d leaf positions, want %d", len(seen), db.ConcatLen())
	}
	// Early termination.
	count := 0
	tree.LeafPositions(tree.Root(), func(pos int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early termination failed, count = %d", count)
	}
}

func TestPathLabelMatchesSuffix(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGTACGA", "TTGCA")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	text := db.Concat()
	tree.Walk(tree.Root(), func(n NodeID) bool {
		if tree.IsLeaf(n) {
			p := tree.SuffixStart(n)
			end := db.SuffixEnd(p) + 1
			if string(tree.PathLabel(n)) != string(text[p:end]) {
				t.Fatalf("leaf %d path label mismatch", n)
			}
		}
		return true
	})
}

func TestWalkPruning(t *testing.T) {
	db := paperDB(t)
	tree, err := buildUkkonen(db)
	if err != nil {
		t.Fatal(err)
	}
	full, pruned := 0, 0
	tree.Walk(tree.Root(), func(n NodeID) bool { full++; return true })
	tree.Walk(tree.Root(), func(n NodeID) bool { pruned++; return n == tree.Root() })
	if pruned >= full {
		t.Fatalf("pruned walk (%d) should visit fewer nodes than full walk (%d)", pruned, full)
	}
	if pruned != 1+len(tree.Children(tree.Root())) {
		t.Fatalf("pruned walk visited %d nodes", pruned)
	}
}

func TestEmptyAndTinyDatabases(t *testing.T) {
	empty, err := seq.NewDatabase(seq.DNA, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := buildUkkonen(empty)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 0 || tree.NumNodes() != 1 {
		t.Fatalf("empty tree has %d leaves %d nodes", tree.NumLeaves(), tree.NumNodes())
	}
	if tree.Contains(seq.DNA.MustEncode("A")) {
		t.Fatal("empty tree should contain nothing")
	}

	single, err := seq.DatabaseFromStrings(seq.DNA, "G")
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builders {
		tr, err := build(single)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tr.Contains(seq.DNA.MustEncode("G")) || tr.Contains(seq.DNA.MustEncode("A")) {
			t.Fatalf("%s: single-symbol containment wrong", name)
		}
	}
}

func TestNilDatabaseRejected(t *testing.T) {
	if _, err := buildUkkonen(nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Build(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestTreeStats(t *testing.T) {
	db := paperDB(t)
	tree, err := buildUkkonen(db)
	if err != nil {
		t.Fatal(err)
	}
	st := tree.ComputeStats()
	if st.NumLeaves != 12 || st.NumNodes != tree.NumNodes() {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.MaxDepth != 12 { // the longest suffix (whole sequence + terminator)
		t.Fatalf("MaxDepth = %d, want 12", st.MaxDepth)
	}
	if st.TextLength != db.ConcatLen() {
		t.Fatalf("TextLength = %d", st.TextLength)
	}
}

func TestDepthAndParentConsistency(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "GATTACAGATTACA", "CCGG")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := buildUkkonen(db)
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(tree.Root(), func(n NodeID) bool {
		if n == tree.Root() {
			if tree.Depth(n) != 0 || tree.Parent(n) != NoNode {
				t.Fatal("root depth/parent wrong")
			}
			return true
		}
		p := tree.Parent(n)
		if tree.Depth(n) != tree.Depth(p)+len(tree.EdgeLabel(n)) {
			t.Fatalf("depth inconsistency at node %d", n)
		}
		// n must appear in its parent's child list.
		found := false
		for _, c := range tree.Children(p) {
			if c == n {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing from parent's child list", n)
		}
		return true
	})
}

func TestSuffixStartPanicsOnInternalNode(t *testing.T) {
	db := paperDB(t)
	tree, _ := buildUkkonen(db)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.SuffixStart(tree.Root())
}

func randomDNAString(rng *rand.Rand, n int) string { return randomString(rng, "ACGT", n) }

func randomString(rng *rand.Rand, letters string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
