package core

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// leafRangesRecursive is the definition NewMemoryIndex's iterative pass must
// reproduce: a depth-first tour in sibling order, every leaf's suffix start
// appended as it is met, each node owning the range appended below it.
func leafRangesRecursive(tree *suffixtree.Tree) (pos []int64, lo, hi []int32) {
	lo = make([]int32, tree.NumNodes())
	hi = make([]int32, tree.NumNodes())
	var dfs func(n suffixtree.NodeID)
	dfs = func(n suffixtree.NodeID) {
		lo[n] = int32(len(pos))
		if tree.IsLeaf(n) {
			pos = append(pos, tree.SuffixStart(n))
		}
		for _, c := range tree.Children(n) {
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
		tree, err := suffixtree.BuildUkkonen(db)
		if err != nil {
			t.Fatal(err)
		}
		check("batch", tree, db)

		// The memtable's trees come from the online builder's snapshots.
		// An empty one is a childless root.
		ob, err := suffixtree.NewOnlineBuilder(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			otree, odb, err := ob.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			check("online", otree, odb)
			if i == db.NumSequences() {
				break
			}
			if err := ob.Append(db.Sequence(i)); err != nil {
				t.Fatal(err)
			}
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
