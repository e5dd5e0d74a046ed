// Package suffixtree implements the generalized suffix tree that drives the
// OASIS search (paper Section 2.3): a compact PATRICIA trie over every
// suffix of every sequence in a database, with multi-symbol edges and one
// leaf per suffix.
//
// Two construction algorithms produce the same tree node for node, which the
// tests verify.  Build derives it from a suffix array (SA-IS + LCP); it
// builds every tree the system searches: the memory index
// (core.BuildMemoryIndex), every disk index file (diskst.Build) and each
// snapshot of the engine's memtable (OnlineBuilder).  Ukkonen's online
// algorithm (BuildUkkonen) is the tests' reference.
package suffixtree

import (
	"fmt"
	"sort"

	"repro/internal/seq"
)

// NodeID identifies a node within a Tree.  The root is always node 0.
// NoNode marks the absence of a node (e.g. NextSibling of the last child).
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// node is the frozen representation of a suffix-tree node.
type node struct {
	// start/end delimit the incoming edge label within the database's
	// concatenated symbol view; the root has start == end == 0.
	start, end int64
	// parent is the parent node (NoNode for the root).
	parent NodeID
	// firstChild is the head of the child list (NoNode for leaves).
	firstChild NodeID
	// nextSibling links the children of a node (NoNode for the last).
	nextSibling NodeID
	// depth is the number of symbols on the path from the root to this
	// node (including the incoming edge).
	depth int32
	// suffixStart is the starting position of the suffix for leaves, or
	// -1 for internal nodes.
	suffixStart int64
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

// Children returns the children of n in deterministic order (by first edge
// symbol, terminator edges last, ties by suffix start).
func (t *Tree) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := t.nodes[n].firstChild; c != NoNode; c = t.nodes[c].nextSibling {
		out = append(out, c)
	}
	return out
}

// EdgeLabel returns the symbols labelling the incoming edge of n (empty for
// the root).  The returned slice aliases the database's concatenated view.
func (t *Tree) EdgeLabel(n NodeID) []byte {
	nd := t.nodes[n]
	return t.text[nd.start:nd.end]
}

// EdgeStart returns the position in the concatenated view at which the
// incoming edge label of n begins.
func (t *Tree) EdgeStart(n NodeID) int64 { return t.nodes[n].start }

// Depth returns the number of symbols on the root path of n.
func (t *Tree) Depth(n NodeID) int { return int(t.nodes[n].depth) }

// SuffixStart returns the global position of the suffix represented by leaf
// n.  It panics if n is not a leaf.
func (t *Tree) SuffixStart(n NodeID) int64 {
	if !t.IsLeaf(n) {
		panic(fmt.Sprintf("suffixtree: SuffixStart on non-leaf node %d", n))
	}
	return t.nodes[n].suffixStart
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
// the last) from one fetch of n's node record: a child walk that touches
// millions of randomly laid out children reads each record once.
func (t *Tree) Edge(n NodeID) (label []byte, suffixStart int64, nextSibling NodeID) {
	nd := &t.nodes[n]
	return t.text[nd.start:nd.end], nd.suffixStart, nd.nextSibling
}

// LeafPositions calls fn with the suffix start position of every leaf in the
// subtree rooted at n, in depth-first order.  Iteration stops early when fn
// returns false.  The traversal follows the first-child/next-sibling links
// directly and performs no allocation (reporting an accepted OASIS node may
// visit very large subtrees).
func (t *Tree) LeafPositions(n NodeID, fn func(pos int64) bool) {
	if t.IsLeaf(n) {
		fn(t.nodes[n].suffixStart)
		return
	}
	cur := t.nodes[n].firstChild
	if cur == NoNode {
		return
	}
	for {
		if t.nodes[cur].firstChild == NoNode && t.nodes[cur].suffixStart >= 0 {
			if !fn(t.nodes[cur].suffixStart) {
				return
			}
		} else if t.nodes[cur].firstChild != NoNode {
			cur = t.nodes[cur].firstChild
			continue
		}
		// Advance: next sibling, or climb until one exists (stopping at n).
		for {
			if cur == n {
				return
			}
			if sib := t.nodes[cur].nextSibling; sib != NoNode {
				cur = sib
				break
			}
			cur = t.nodes[cur].parent
			if cur == n || cur == NoNode {
				return
			}
		}
	}
}

// sortChildren orders sibling lists deterministically: by the first byte of
// the edge label (terminator sorts last because it is 0xFF), ties broken by
// suffix start (leaves) and then edge start.
func (t *Tree) sortChildren() {
	for id := range t.nodes {
		children := t.Children(NodeID(id))
		if len(children) < 2 {
			continue
		}
		sort.Slice(children, func(a, b int) bool {
			na, nb := t.nodes[children[a]], t.nodes[children[b]]
			ca, cb := t.text[na.start], t.text[nb.start]
			if ca != cb {
				return ca < cb
			}
			sa, sb := na.suffixStart, nb.suffixStart
			if sa != sb {
				return sa < sb
			}
			return na.start < nb.start
		})
		t.nodes[id].firstChild = children[0]
		for i := 0; i < len(children); i++ {
			if i+1 < len(children) {
				t.nodes[children[i]].nextSibling = children[i+1]
			} else {
				t.nodes[children[i]].nextSibling = NoNode
			}
		}
	}
	t.relayout()
}

// relayout renumbers the nodes so every sibling family occupies consecutive
// ids, in depth-first family order.  Construction order (Ukkonen's in
// particular) scatters siblings across the node array, which turns every
// child-list walk into a chain of random fetches; after relayout the Edge
// walks and the child scans of the OASIS search walk sequential memory.  The
// renumbering is fully determined by the (already sorted) tree structure, so
// the two builders still produce identical trees.
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
