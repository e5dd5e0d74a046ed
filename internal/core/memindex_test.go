package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/workload"
)

// leafRangesRecursive is the definition NewMemoryIndex's iterative pass must
// reproduce: a depth-first tour in sibling order, every leaf's suffix start
// appended as it is met, each node owning the range appended below it.
func leafRangesRecursive(tree *suffixtree.Tree) (pos []uint32, lo, hi []int32) {
	lo = make([]int32, tree.NumNodes())
	hi = make([]int32, tree.NumNodes())
	var dfs func(n suffixtree.NodeID)
	dfs = func(n suffixtree.NodeID) {
		lo[n] = int32(len(pos))
		if tree.IsLeaf(n) {
			pos = append(pos, uint32(tree.SuffixStart(n)))
		}
		for c := tree.FirstChild(n); c != suffixtree.NoNode; c = tree.NextSibling(c) {
			dfs(c)
		}
		hi[n] = int32(len(pos))
	}
	dfs(tree.Root())
	return pos, lo, hi
}

func TestMemoryIndexLeafRangesMatchRecursiveDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(name string, tree *suffixtree.Tree, db *seq.Database) {
		t.Helper()
		m, err := NewMemoryIndex(tree, db)
		if err != nil {
			t.Fatal(err)
		}
		pos, lo, hi := leafRangesRecursive(tree)
		if len(pos) != tree.NumLeaves() {
			t.Fatalf("%s: reference tour has %d leaves, tree has %d", name, len(pos), tree.NumLeaves())
		}
		if !slices.Equal(m.leafPos, pos) || !slices.Equal(m.leafLo, lo) || !slices.Equal(m.leafHi, hi) {
			t.Errorf("%s: leafPos/leafLo/leafHi differ from the recursive definition", name)
		}
	}
	for trial := 0; trial < 60; trial++ {
		a := seq.DNA
		if trial%2 == 1 {
			a = seq.Protein
		}
		db := randomDB(t, rng, a, 1+rng.Intn(12), 1+rng.Intn(80))
		tree, err := suffixtree.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		check("batch", tree, db)

		// The engine's memtable indexes each prefix of its inserts in turn.
		// An empty one is a childless root.
		for i := 0; i <= db.NumSequences(); i++ {
			pdb, err := seq.NewDatabase(a, db.Sequences()[:i])
			if err != nil {
				t.Fatal(err)
			}
			ptree, err := suffixtree.Build(pdb)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && (ptree.NumNodes() != 1 || ptree.FirstChild(ptree.Root()) != suffixtree.NoNode) {
				t.Fatalf("empty memtable tree has %d nodes", ptree.NumNodes())
			}
			check("prefix", ptree, pdb)
		}
	}
}

// TestMemoryIndexDeepTree indexes one long single-letter sequence, whose
// suffix tree is a chain as deep as the sequence is long, on a stack far
// smaller than one frame per level would need.
func TestMemoryIndexDeepTree(t *testing.T) {
	const n = 1 << 17
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	db, err := seq.DatabaseFromStrings(seq.DNA, strings.Repeat("A", n))
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.leafPos) != m.tree.NumLeaves() || m.leafLo[0] != 0 || int(m.leafHi[0]) != len(m.leafPos) {
		t.Fatalf("root owns [%d,%d) of %d leaf positions, tree has %d leaves",
			m.leafLo[0], m.leafHi[0], len(m.leafPos), m.tree.NumLeaves())
	}
}

// FuzzMemoryIndexWalk walks BuildMemoryIndex of a fuzzed DNA or protein
// database from the root through VisitChildren, passing each node's true
// depth as the parent depth the edges are derived from.  Every leaf's path
// label must be its suffix through the terminator, every suffix start must
// be met exactly once, and every internal node's LeafPositions must list the
// leaves found below it, in the walk's order.
func FuzzMemoryIndexWalk(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), false)
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), false)
	f.Add([]byte("MKVLAAGIVALLLAAGCSSHHHHHH\x00MKVLAAGIV\x00WWWWWWWW"), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, true)
	f.Fuzz(func(t *testing.T, data []byte, protein bool) {
		alpha := seq.DNA
		if protein {
			alpha = seq.Protein
		}
		db := fuzzDatabase(alpha, data)
		if db == nil || len(data) > 1024 {
			t.Skip()
		}
		m, err := BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		text := db.Concat()
		seen := make([]bool, len(text))
		// walk returns the leaves below ref in VisitChildren order.
		var walk func(ref NodeRef, path []byte) []int64
		walk = func(ref NodeRef, path []byte) []int64 {
			var below []int64
			err := m.VisitChildren(ref, len(path), func(child NodeRef, label []byte) error {
				if len(label) == 0 {
					t.Fatalf("node %v has a child with an empty label", ref)
				}
				childPath := append(slices.Clip(path), label...)
				if !child.IsLeaf() {
					below = append(below, walk(child, childPath)...)
					return nil
				}
				pos := child.LeafPos()
				if seen[pos] {
					t.Fatalf("suffix %d met twice", pos)
				}
				seen[pos] = true
				if want := text[pos : db.SuffixEnd(pos)+1]; string(childPath) != string(want) {
					t.Fatalf("leaf %d has path %v, want its suffix %v", pos, childPath, want)
				}
				below = append(below, pos)
				return nil
			})
			if err != nil {
				t.Fatalf("VisitChildren(%v): %v", ref, err)
			}
			var listed []int64
			if err := m.LeafPositions(ref, func(pos int64) bool { listed = append(listed, pos); return true }); err != nil {
				t.Fatalf("LeafPositions(%v): %v", ref, err)
			}
			if !slices.Equal(listed, below) {
				t.Fatalf("node %v: LeafPositions %v, walk found %v", ref, listed, below)
			}
			return below
		}
		if got := len(walk(m.Root(), nil)); got != len(text) {
			t.Fatalf("walk met %d suffixes, text has %d", got, len(text))
		}
	})
}

// TestMemoryIndexFootprint bounds the heap one MemoryIndex holds beyond its
// database.  It is not parallel: the measurement is a difference of two
// whole-heap readings.
func TestMemoryIndexFootprint(t *testing.T) {
	db, _, err := workload.ProteinDatabase(workload.DefaultProteinConfig(100_000))
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	m, err := BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	perResidue := float64(heap()-before) / float64(db.TotalResidues())
	runtime.KeepAlive(m)
	t.Logf("%d residues, %d nodes: %.1f B/residue", db.TotalResidues(), m.Tree().NumNodes(), perResidue)
	if perResidue > 48 {
		t.Fatalf("MemoryIndex holds %.1f B/residue of heap, want <= 48", perResidue)
	}
}
