package diskst

import (
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// randomStrings draws n strings over letters, each lenOf() long.
func randomStrings(rng *rand.Rand, letters string, n int, lenOf func() int) []string {
	out := make([]string, n)
	for i := range out {
		b := make([]byte, lenOf())
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = string(b)
	}
	return out
}

// straddleCorpus is a protein database shaped to put the format's runs across
// page boundaries at 512- and 2048-byte pages: 600 sequences, so the root's
// leaf run (one leaf per terminator, 2,400 bytes) spans pages, and enough
// residues that every 1- and 2-residue prefix branches 20 ways, so 320-byte
// child-record runs lie back to back from record 1 on and some cross a page.
func straddleCorpus(t *testing.T) *seq.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	db, err := seq.DatabaseFromStrings(seq.Protein, randomStrings(rng, aminoAcids, 600, func() int { return 1 + rng.Intn(40) })...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// requireStraddles fails unless, at the index's page size, the root's leaf
// run, the child-record run of some node with 20 or more internal children,
// and some record pair (i, i+1) each lie on more than one page.
func requireStraddles(t *testing.T, idx *Index) {
	t.Helper()
	pair, leafRun, kidRun := false, false, false
	// pages: do entries [from, to) of a region of size-byte entries span pages?
	pages := func(from, to uint32, size int64) bool {
		return to > from && int64(from)*size/idx.pageSize != (int64(to)*size-1)/idx.pageSize
	}
	for i := int64(0); i < idx.NumInternal(); i++ {
		rec, next, err := idx.readPair(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		pair = pair || i*internalRecordSize/idx.pageSize != (i+1)*internalRecordSize/idx.pageSize
		leafRun = leafRun || i == 0 && pages(rec.leafStart, next.leafStart, leafRecordSize)
		kidRun = kidRun || next.firstChild-rec.firstChild >= 20 && pages(rec.firstChild, next.firstChild, internalRecordSize)
	}
	if !pair || !leafRun || !kidRun {
		t.Fatalf("page size %d: fixture straddles no page with a record pair (%v), the root's leaf run (%v) or a 20-child record run (%v)",
			idx.pageSize, pair, leafRun, kidRun)
	}
}

// edge is one child of a node as both the tree and the index describe it.
type edge struct {
	leafPos int64 // -1 for an internal child
	label   string
}

// TestLayoutMatchesTree holds the on-disk layout to the suffix tree it was
// written from, node by node, on protein and DNA databases that include
// 1-residue sequences and a repeat-heavy one: VisitChildren yields exactly
// the tree's children — kind, leaf position or path label, full edge label —
// reordered as documented (leaf children ascending by position, then internal
// children in sibling order); and LeafPositions of every internal node is the
// memory index's set and stops when told to.
func TestLayoutMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	short := func() int { return 1 + rng.Intn(60) }
	cases := []struct {
		name     string
		alphabet *seq.Alphabet
		strs     []string
	}{
		{"protein", seq.Protein, append(randomStrings(rng, aminoAcids, 40, short), "M", "K", "M")},
		{"dna", seq.DNA, append(randomStrings(rng, "ACGT", 30, short), "A", "C", "A", "T")},
		{"repeats", seq.DNA, []string{strings.Repeat("A", 300), strings.Repeat("ACG", 90), strings.Repeat("A", 120) + "C", "A"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := seq.DatabaseFromStrings(tc.alphabet, tc.strs...)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := suffixtree.Build(db)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "index.oasis")
			if _, err := Write(path, tree, BuildOptions{BlockSize: 256}); err != nil {
				t.Fatal(err)
			}
			idx, err := Open(path, bufferpool.New(1<<20, 256))
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			mem, err := core.NewMemoryIndex(tree, db)
			if err != nil {
				t.Fatal(err)
			}
			leafSet := func(x core.Index, ref core.NodeRef) []int64 {
				var out []int64
				if err := x.LeafPositions(ref, func(pos int64) bool { out = append(out, pos); return true }); err != nil {
					t.Fatal(err)
				}
				slices.Sort(out)
				return out
			}

			nodes := 0
			var walk func(n suffixtree.NodeID, ref core.NodeRef, prefix string)
			walk = func(n suffixtree.NodeID, ref core.NodeRef, prefix string) {
				nodes++
				if got := string(tree.PathLabel(n)); got != prefix {
					t.Fatalf("node %d: index path label %q, tree has %q", ref, prefix, got)
				}
				var leaves, internal []edge
				var treeKids []suffixtree.NodeID
				for c := tree.FirstChild(n); c != suffixtree.NoNode; {
					label, suffixStart, next := tree.Edge(c, tree.Depth(n))
					if suffixStart >= 0 {
						leaves = append(leaves, edge{suffixStart, string(label)})
					} else {
						internal = append(internal, edge{-1, string(label)})
						treeKids = append(treeKids, c)
					}
					c = next
				}
				slices.SortFunc(leaves, func(a, b edge) int { return int(a.leafPos - b.leafPos) })
				want := append(leaves, internal...)

				var got []edge
				var kids []core.NodeRef
				if err := idx.VisitChildren(ref, len(prefix), func(c core.NodeRef, label []byte) error {
					e := edge{-1, string(label)}
					if c.IsLeaf() {
						e.leafPos = c.LeafPos()
					} else {
						kids = append(kids, c)
					}
					got = append(got, e)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("node %d (%q): children\n got %v\nwant %v", ref, prefix, got, want)
				}

				all := leafSet(idx, ref)
				if !slices.Equal(all, leafSet(mem, core.InternalRef(int64(n)))) {
					t.Fatalf("node %d (%q): LeafPositions differs from the memory index's", ref, prefix)
				}
				stopAt, calls := (len(all)+1)/2, 0
				if err := idx.LeafPositions(ref, func(int64) bool { calls++; return calls < stopAt }); err != nil || calls != stopAt {
					t.Fatalf("node %d: LeafPositions told to stop at call %d of %d made %d (%v)", ref, stopAt, len(all), calls, err)
				}
				for i, c := range treeKids {
					walk(c, kids[i], prefix+internal[i].label)
				}
			}
			walk(tree.Root(), idx.Root(), "")
			if nodes != tree.NumInternal() || int64(nodes) != idx.NumInternal() {
				t.Fatalf("walked %d internal nodes; tree has %d, index %d", nodes, tree.NumInternal(), idx.NumInternal())
			}
		})
	}
}

// TestLeafPositionsDeepTree: the suffix tree of one long single-letter
// sequence is a chain as deep as the sequence is long, and a delta compacted
// from the largest sequence /insert admits is this deep.  LeafPositions walks
// it level by level, so it reports every position on a stack far smaller than
// one frame per level would need (TestMemoryIndexDeepTree's corpus and limit).
func TestLeafPositionsDeepTree(t *testing.T) {
	const n = 1 << 17
	db, err := seq.DatabaseFromStrings(seq.DNA, strings.Repeat("A", n))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	seen := make([]bool, n+1)
	count := 0
	if err := idx.LeafPositions(idx.Root(), func(pos int64) bool {
		if seen[pos] {
			t.Fatalf("position %d reported twice", pos)
		}
		seen[pos] = true
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n+1 {
		t.Fatalf("reported %d of %d positions", count, n+1)
	}
}
