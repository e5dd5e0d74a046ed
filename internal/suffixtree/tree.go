// Package suffixtree implements the generalized suffix tree that drives the
// OASIS search (paper Section 2.3): a compact PATRICIA trie over every
// suffix of every sequence in a database, with multi-symbol edges and one
// leaf per suffix.
//
// A node is 20 bytes (Kurtz, "Reducing the space requirement of suffix
// trees", Softw. Pract. Exper. 1999): its incoming edge's start in the
// concatenated symbol view, its depth, and its parent, first-child and
// next-sibling links.  As in the paper's §3.4 disk layout, everything else
// is derived: the edge is depth - parent depth symbols long, and a leaf's
// suffix starts at its edge start - parent depth.
//
// Build derives the tree from a suffix array (SA-IS + LCP) and builds every
// tree the system searches: each memory index (core.BuildMemoryIndex, the
// engine's memtable included) and every disk index file (diskst.Build).  The
// tests hold it, node for node, to their reference: Ukkonen's online
// algorithm.
package suffixtree

import (
	"fmt"

	"repro/internal/seq"
)

// NodeID identifies a node within a Tree.  The root is always node 0.
// NoNode marks the absence of a node (e.g. NextSibling of the last child).
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// node is the frozen representation of a suffix-tree node.  It stores no
// edge end and no suffix start: both follow from the parent's depth (see
// Edge), so the record is 20 bytes.
type node struct {
	// start is the position of the incoming edge label within the
	// database's concatenated symbol view; 0 for the root.  Both builders
	// refuse a view past maxBuildSymbols, so every position fits.
	start int32
	// depth is the number of symbols on the path from the root to this
	// node (including the incoming edge).
	depth int32
	// parent is the parent node (NoNode for the root).
	parent NodeID
	// firstChild is the head of the child list (NoNode for leaves).
	firstChild NodeID
	// nextSibling links the children of a node (NoNode for the last).
	nextSibling NodeID
}

// Tree is an immutable generalized suffix tree over a sequence database.
type Tree struct {
	db    *seq.Database
	text  []byte // db.Concat()
	nodes []node
	// numLeaves and numInternal are cached counts.
	numLeaves   int
	numInternal int
}

// DB returns the database the tree indexes.
func (t *Tree) DB() *seq.Database { return t.db }

// Text returns the concatenated symbol view the edge labels refer to.
func (t *Tree) Text() []byte { return t.text }

// Root returns the root node (always 0).
func (t *Tree) Root() NodeID { return 0 }

// NumNodes returns the total number of nodes including the root.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaf nodes (one per indexed suffix).
func (t *Tree) NumLeaves() int { return t.numLeaves }

// NumInternal returns the number of internal nodes including the root.
func (t *Tree) NumInternal() int { return t.numInternal }

// IsLeaf reports whether n is a leaf.
func (t *Tree) IsLeaf(n NodeID) bool { return t.nodes[n].firstChild == NoNode && n != 0 }

// Parent returns the parent of n (NoNode for the root).
func (t *Tree) Parent(n NodeID) NodeID { return t.nodes[n].parent }

// FirstChild returns the first child of n, or NoNode.
func (t *Tree) FirstChild(n NodeID) NodeID { return t.nodes[n].firstChild }

// NextSibling returns the next sibling of n, or NoNode.
func (t *Tree) NextSibling(n NodeID) NodeID { return t.nodes[n].nextSibling }

// EdgeLabel returns the symbols labelling the incoming edge of n (empty for
// the root).  The returned slice aliases the database's concatenated view.
func (t *Tree) EdgeLabel(n NodeID) []byte {
	label, _, _ := t.Edge(n, t.parentDepth(n))
	return label
}

// EdgeStart returns the position in the concatenated view at which the
// incoming edge label of n begins.
func (t *Tree) EdgeStart(n NodeID) int64 { return int64(t.nodes[n].start) }

// Depth returns the number of symbols on the root path of n.
func (t *Tree) Depth(n NodeID) int { return int(t.nodes[n].depth) }

// parentDepth returns the depth of n's parent, 0 for the root.
func (t *Tree) parentDepth(n NodeID) int {
	if p := t.nodes[n].parent; p != NoNode {
		return int(t.nodes[p].depth)
	}
	return 0
}

// SuffixStart returns the global position of the suffix represented by leaf
// n.  It panics if n is not a leaf.
func (t *Tree) SuffixStart(n NodeID) int64 {
	if !t.IsLeaf(n) {
		panic(fmt.Sprintf("suffixtree: SuffixStart on non-leaf node %d", n))
	}
	_, suffixStart, _ := t.Edge(n, t.parentDepth(n))
	return suffixStart
}

// PathLabel returns the concatenation of edge labels from the root to n.
func (t *Tree) PathLabel(n NodeID) []byte {
	depth := int(t.nodes[n].depth)
	out := make([]byte, 0, depth)
	// Collect the chain root -> n.
	var chain []NodeID
	for c := n; c != NoNode; c = t.nodes[c].parent {
		chain = append(chain, c)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, t.EdgeLabel(chain[i])...)
	}
	return out
}

// Edge returns the incoming edge label of n, its suffix start (-1 for an
// internal node, >= 0 exactly for a leaf) and its next sibling (NoNode for
// the last), given parentDepth, the depth of n's parent: the label ends at
// start + depth - parentDepth, and a leaf's suffix starts at
// start - parentDepth.  A child walk that already knows its parent's depth
// reads one 20-byte record per child and no parent record.
func (t *Tree) Edge(n NodeID, parentDepth int) (label []byte, suffixStart int64, nextSibling NodeID) {
	nd := &t.nodes[n]
	start := int(nd.start)
	suffixStart = -1
	if nd.firstChild == NoNode {
		suffixStart = int64(start - parentDepth)
	}
	return t.text[start : start+int(nd.depth)-parentDepth], suffixStart, nd.nextSibling
}

// relayout renumbers the nodes so every sibling family occupies consecutive
// ids, in depth-first family order.  Construction order scatters siblings
// across the node array, which turns every child-list walk into a chain of
// random fetches; after relayout the Edge walks and the child scans of the
// OASIS search walk sequential memory.  The renumbering is fully determined
// by the tree structure, child order included, so any construction of the
// same tree, the tests' Ukkonen reference included, ends with the same nodes.
func (t *Tree) relayout() {
	n := len(t.nodes)
	newID := make([]NodeID, n)    // old id -> new id
	order := make([]NodeID, 1, n) // new id -> old id; root keeps id 0
	stack := make([]NodeID, 0, 64)
	stack = append(stack, 0)
	for len(stack) > 0 {
		old := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		firstNew := len(order)
		for c := t.nodes[old].firstChild; c != NoNode; c = t.nodes[c].nextSibling {
			newID[c] = NodeID(len(order))
			order = append(order, c)
		}
		// Visit the first child's family next: push internal children in
		// reverse sibling order.
		for i := len(order) - 1; i >= firstNew; i-- {
			if t.nodes[order[i]].firstChild != NoNode {
				stack = append(stack, order[i])
			}
		}
	}
	nodes := make([]node, n)
	for newI, oldI := range order {
		nd := t.nodes[oldI]
		if nd.parent != NoNode {
			nd.parent = newID[nd.parent]
		}
		if nd.firstChild != NoNode {
			nd.firstChild = newID[nd.firstChild]
		}
		if nd.nextSibling != NoNode {
			nd.nextSibling = newID[nd.nextSibling]
		}
		nodes[newI] = nd
	}
	t.nodes = nodes
}
