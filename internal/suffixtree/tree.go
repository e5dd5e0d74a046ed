// Package suffixtree implements the generalized suffix tree that drives the
// OASIS search (paper Section 2.3): a compact PATRICIA trie over every
// suffix of every sequence in a database, with multi-symbol edges and one
// leaf per suffix.
//
// Two construction algorithms are provided: Ukkonen's online linear-time
// algorithm (BuildUkkonen) and a sorted-suffix construction (BuildSorted)
// that doubles as the reference implementation and as the per-partition
// builder used by the disk-based index (internal/diskst).  Both produce
// byte-identical trees, which the tests verify.
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
// first violation found.  It is used by tests and by the disk-serialisation
// round-trip checks.
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
		edgeLen := nd.end - nd.start
		if edgeLen <= 0 {
			return fmt.Errorf("suffixtree: node %d has empty edge", id)
		}
		if int64(nd.depth) != int64(p.depth)+edgeLen {
			return fmt.Errorf("suffixtree: node %d depth %d != parent depth %d + edge %d",
				id, nd.depth, p.depth, edgeLen)
		}
		if nd.firstChild == NoNode {
			leaves++
			if nd.suffixStart < 0 {
				return fmt.Errorf("suffixtree: leaf %d has no suffix start", id)
			}
			// The leaf path must equal the suffix it represents.
			end := t.db.SuffixEnd(nd.suffixStart) + 1 // include terminator
			want := t.text[nd.suffixStart:end]
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
