package suffixtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

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
	"ukkonen": BuildUkkonen,
	"sorted":  BuildSorted,
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

// canonicalize produces a structural fingerprint of the tree that is
// independent of node numbering: a pre-order listing of edge labels, depths
// and leaf positions.
func canonicalize(t *Tree) string {
	var sb strings.Builder
	var walk func(n NodeID)
	walk = func(n NodeID) {
		label := t.EdgeLabel(n)
		if t.IsLeaf(n) {
			fmt.Fprintf(&sb, "L(%q,%d,%d)", label, t.Depth(n), t.SuffixStart(n))
		} else {
			fmt.Fprintf(&sb, "N(%q,%d)[", label, t.Depth(n))
		}
		for _, c := range t.Children(n) {
			walk(c)
		}
		if !t.IsLeaf(n) {
			sb.WriteString("]")
		}
	}
	walk(t.Root())
	return sb.String()
}

func TestBuildersProduceIdenticalTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]string{
		{"AGTACGCCTAG"},
		{"A"},
		{"AAAAAAAA"},
		{"ACGT", "ACGT"},           // identical sequences
		{"ACGTACGT", "TTTT", "AG"}, // mixed lengths
		{"AG", "AGA", "GAG", "A"},
	}
	// Add random cases.
	for i := 0; i < 6; i++ {
		var strsCase []string
		for j := 0; j < 1+rng.Intn(4); j++ {
			strsCase = append(strsCase, randomDNAString(rng, 1+rng.Intn(60)))
		}
		cases = append(cases, strsCase)
	}
	for ci, strsCase := range cases {
		db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
		if err != nil {
			t.Fatal(err)
		}
		var ref string
		for name, build := range builders {
			tree, err := build(db)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			c := canonicalize(tree)
			if ref == "" {
				ref = c
			} else if c != ref {
				t.Fatalf("case %d: %s produced a different tree", ci, name)
			}
		}
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
		tree, err := BuildUkkonen(db)
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
	tree, err := BuildUkkonen(db)
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
	tree, err := BuildSorted(db)
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
	tree, err := BuildUkkonen(db)
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
	tree, err := BuildUkkonen(empty)
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
	if _, err := BuildUkkonen(nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := BuildSorted(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestCompareSuffixesTotalOrder(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGTAC", "AC")
	if err != nil {
		t.Fatal(err)
	}
	n := db.ConcatLen()
	text, ends := db.Concat(), suffixEnds(db)
	for a := int64(0); a < n; a++ {
		if compareSuffixesFast(text, ends, a, a) != 0 {
			t.Fatalf("suffix %d not equal to itself", a)
		}
		for b := int64(0); b < n; b++ {
			if a == b {
				continue
			}
			ab := compareSuffixesFast(text, ends, a, b)
			ba := compareSuffixesFast(text, ends, b, a)
			if ab == 0 || ba == 0 || ab == ba {
				t.Fatalf("comparison not antisymmetric for %d,%d: %d %d", a, b, ab, ba)
			}
		}
	}
}

func TestTreeStats(t *testing.T) {
	db := paperDB(t)
	tree, err := BuildUkkonen(db)
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
	tree, err := BuildUkkonen(db)
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
	tree, _ := BuildUkkonen(db)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.SuffixStart(tree.Root())
}

func randomDNAString(rng *rand.Rand, n int) string {
	letters := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return string(b)
}
