package suffixtree

import "fmt"

// Tree queries and checks that only tests use.

// Walk performs a pre-order depth-first traversal starting at n, calling fn
// for every node; returning false from fn prunes the node's subtree.
func (t *Tree) Walk(n NodeID, fn func(NodeID) bool) {
	if !fn(n) {
		return
	}
	for c := t.nodes[n].firstChild; c != NoNode; c = t.nodes[c].nextSibling {
		t.Walk(c, fn)
	}
}

// Children returns the children of n in sibling order (by first edge
// symbol, terminator edges last, ties by edge start).
func (t *Tree) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := t.nodes[n].firstChild; c != NoNode; c = t.nodes[c].nextSibling {
		out = append(out, c)
	}
	return out
}

// LeafPositions calls fn with the suffix start of every leaf in the subtree
// rooted at n, in depth-first order, until fn returns false.
func (t *Tree) LeafPositions(n NodeID, fn func(pos int64) bool) {
	more := true
	t.Walk(n, func(c NodeID) bool {
		if more && t.IsLeaf(c) {
			more = fn(t.SuffixStart(c))
		}
		return more
	})
}

// Contains reports whether the pattern (encoded residues, no terminators)
// occurs in the database.
func (t *Tree) Contains(pattern []byte) bool {
	_, _, ok := t.descend(pattern)
	return ok
}

// FindAll returns the global positions of every occurrence of the pattern in
// the database, in no particular order.
func (t *Tree) FindAll(pattern []byte) []int64 {
	n, _, ok := t.descend(pattern)
	if !ok {
		return nil
	}
	var out []int64
	t.LeafPositions(n, func(pos int64) bool {
		out = append(out, pos)
		return true
	})
	return out
}

// descend follows the pattern from the root, returning the node at or below
// which the match ends, the number of symbols consumed on the node's
// incoming edge, and whether the whole pattern was matched.
func (t *Tree) descend(pattern []byte) (NodeID, int, bool) {
	cur := t.Root()
	i := 0
	for i < len(pattern) {
		next := t.childWithSymbol(cur, pattern[i])
		if next == NoNode {
			return cur, 0, false
		}
		label := t.EdgeLabel(next)
		j := 0
		for j < len(label) && i < len(pattern) {
			if label[j] != pattern[i] {
				return next, j, false
			}
			i++
			j++
		}
		cur = next
		if i == len(pattern) {
			return next, j, true
		}
		if j < len(label) {
			return next, j, false
		}
	}
	return cur, 0, true
}

// childWithSymbol returns the child of n whose edge label begins with sym,
// or NoNode.  Terminator-labelled edges are never returned for residue
// symbols.
func (t *Tree) childWithSymbol(n NodeID, sym byte) NodeID {
	for c := t.nodes[n].firstChild; c != NoNode; c = t.nodes[c].nextSibling {
		if t.text[t.nodes[c].start] == sym {
			return c
		}
	}
	return NoNode
}

// Validate checks the structural invariants of the tree and returns the
// first violation found.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("suffixtree: empty node array")
	}
	if t.nodes[0].parent != NoNode || t.nodes[0].depth != 0 {
		return fmt.Errorf("suffixtree: malformed root")
	}
	leaves := 0
	for id := 1; id < len(t.nodes); id++ {
		nd := t.nodes[id]
		if nd.parent == NoNode {
			return fmt.Errorf("suffixtree: node %d has no parent", id)
		}
		p := t.nodes[nd.parent]
		if nd.depth <= p.depth {
			return fmt.Errorf("suffixtree: node %d has empty edge", id)
		}
		if nd.start < 0 || int(nd.start+nd.depth-p.depth) > len(t.text) {
			return fmt.Errorf("suffixtree: node %d edge [%d, +%d) leaves the text", id, nd.start, nd.depth-p.depth)
		}
		if nd.firstChild == NoNode {
			leaves++
			suffixStart := t.SuffixStart(NodeID(id))
			if suffixStart < 0 {
				return fmt.Errorf("suffixtree: leaf %d has no suffix start", id)
			}
			// The leaf path must equal the suffix it represents.
			end := t.db.SuffixEnd(suffixStart) + 1 // include terminator
			want := t.text[suffixStart:end]
			got := t.PathLabel(NodeID(id))
			if string(want) != string(got) {
				return fmt.Errorf("suffixtree: leaf %d path %q != suffix %q", id, got, want)
			}
		} else {
			// Internal nodes (other than the root) must branch.
			count := 0
			for c := nd.firstChild; c != NoNode; c = t.nodes[c].nextSibling {
				if t.nodes[c].parent != NodeID(id) {
					return fmt.Errorf("suffixtree: child %d of %d has wrong parent", c, id)
				}
				count++
			}
			if count < 2 {
				return fmt.Errorf("suffixtree: internal node %d has %d children", id, count)
			}
		}
	}
	// One leaf per position of the concatenated view.
	if leaves != len(t.text) {
		return fmt.Errorf("suffixtree: %d leaves for %d text positions", leaves, len(t.text))
	}
	return nil
}

// Stats describes the size and shape of a tree.
type Stats struct {
	NumNodes    int
	NumLeaves   int
	NumInternal int
	MaxDepth    int
	TextLength  int64
}

// ComputeStats returns size statistics for the tree.
func (t *Tree) ComputeStats() Stats {
	st := Stats{
		NumNodes:    len(t.nodes),
		NumLeaves:   t.numLeaves,
		NumInternal: t.numInternal,
		TextLength:  int64(len(t.text)),
	}
	for _, nd := range t.nodes {
		if int(nd.depth) > st.MaxDepth {
			st.MaxDepth = int(nd.depth)
		}
	}
	return st
}
