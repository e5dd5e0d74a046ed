package suffixtree

import (
	"fmt"
	"sort"

	"repro/internal/seq"
)

// BuildUkkonen constructs the generalized suffix tree of the database using
// Ukkonen's online algorithm in O(n) expected time.
//
// To obtain a *generalized* tree (no suffix crosses a sequence boundary),
// construction runs over a virtual symbol sequence in which every
// terminator is given a distinct symbol; the resulting leaf edges are then
// truncated at the first terminator so the frozen tree stores only the
// shared terminator byte.
func BuildUkkonen(db *seq.Database) (*Tree, error) {
	if db == nil {
		return nil, fmt.Errorf("suffixtree: nil database")
	}
	text := db.Concat()
	if err := checkBuildSymbols(len(text)); err != nil {
		return nil, err
	}
	if len(text) == 0 {
		t := &Tree{db: db, text: text, nodes: []node{{parent: NoNode, firstChild: NoNode, nextSibling: NoNode}}}
		t.numInternal = 1
		return t, nil
	}
	virtual := virtualSymbols(db)
	b := newUkkonenBuilder(virtual)
	for i := range virtual {
		b.extend(i)
	}
	return b.freeze(db, text)
}

// virtualSymbols returns the concatenated view with each terminator mapped
// to a distinct code above the alphabet, so that Ukkonen produces a proper
// generalized tree.
func virtualSymbols(db *seq.Database) []int32 {
	text := db.Concat()
	out := make([]int32, len(text))
	base := int32(db.Alphabet().Size())
	seqIdx := int32(0)
	for i, c := range text {
		if c == seq.Terminator {
			out[i] = base + seqIdx
			seqIdx++
		} else {
			out[i] = int32(c)
		}
	}
	return out
}

const openEnd = int(^uint(0) >> 1) // "grows with the current phase"

// uNode is the mutable node used during Ukkonen construction.
type uNode struct {
	start    int
	end      int // openEnd for still-growing leaf edges
	link     int
	children map[int32]int
}

type ukkonenBuilder struct {
	text  []int32
	nodes []uNode

	activeNode   int
	activeEdge   int // index into text of the active edge's first symbol
	activeLength int
	remainder    int
}

func newUkkonenBuilder(text []int32) *ukkonenBuilder {
	b := &ukkonenBuilder{text: text}
	b.nodes = append(b.nodes, uNode{start: -1, end: -1, link: 0, children: map[int32]int{}})
	b.activeNode = 0
	return b
}

func (b *ukkonenBuilder) newNode(start, end int) int {
	b.nodes = append(b.nodes, uNode{start: start, end: end, link: 0})
	return len(b.nodes) - 1
}

func (b *ukkonenBuilder) edgeLength(n, pos int) int {
	end := b.nodes[n].end
	if end == openEnd {
		end = pos + 1
	}
	return end - b.nodes[n].start
}

// extend performs phase pos of Ukkonen's algorithm.
func (b *ukkonenBuilder) extend(pos int) {
	b.remainder++
	lastNewNode := -1
	for b.remainder > 0 {
		if b.activeLength == 0 {
			b.activeEdge = pos
		}
		edgeSym := b.text[b.activeEdge]
		next, ok := b.childOf(b.activeNode, edgeSym)
		if !ok {
			// Rule 2: no edge starts with the current symbol; add a leaf.
			leaf := b.newNode(pos, openEnd)
			b.setChild(b.activeNode, edgeSym, leaf)
			if lastNewNode != -1 {
				b.nodes[lastNewNode].link = b.activeNode
				lastNewNode = -1
			}
		} else {
			edgeLen := b.edgeLength(next, pos)
			if b.activeLength >= edgeLen {
				// Walk down.
				b.activeEdge += edgeLen
				b.activeLength -= edgeLen
				b.activeNode = next
				continue
			}
			if b.text[b.nodes[next].start+b.activeLength] == b.text[pos] {
				// Rule 3: already present; stop this phase.
				if lastNewNode != -1 && b.activeNode != 0 {
					b.nodes[lastNewNode].link = b.activeNode
					lastNewNode = -1
				}
				b.activeLength++
				break
			}
			// Rule 2 with split.
			splitEnd := b.nodes[next].start + b.activeLength
			split := b.newNode(b.nodes[next].start, splitEnd)
			b.setChild(b.activeNode, edgeSym, split)
			leaf := b.newNode(pos, openEnd)
			b.setChild(split, b.text[pos], leaf)
			b.nodes[next].start += b.activeLength
			b.setChild(split, b.text[b.nodes[next].start], next)
			if lastNewNode != -1 {
				b.nodes[lastNewNode].link = split
			}
			lastNewNode = split
		}
		b.remainder--
		if b.activeNode == 0 && b.activeLength > 0 {
			b.activeLength--
			b.activeEdge = pos - b.remainder + 1
		} else if b.activeNode != 0 {
			b.activeNode = b.nodes[b.activeNode].link
		}
	}
}

func (b *ukkonenBuilder) childOf(n int, sym int32) (int, bool) {
	if b.nodes[n].children == nil {
		return 0, false
	}
	c, ok := b.nodes[n].children[sym]
	return c, ok
}

func (b *ukkonenBuilder) setChild(n int, sym int32, child int) {
	if b.nodes[n].children == nil {
		b.nodes[n].children = map[int32]int{}
	}
	b.nodes[n].children[sym] = child
}

// freeze converts the construction nodes into the immutable Tree
// representation: computes depths, truncates leaf edges at the first
// terminator, drops the virtual terminator distinction, orders every child
// list by the first byte of its edge label (terminator edges, 0xFF, last;
// ties, all terminator leaves, by edge start) and lays the nodes out with
// relayout.
func (b *ukkonenBuilder) freeze(db *seq.Database, text []byte) (*Tree, error) {
	n := len(b.text)
	t := &Tree{db: db, text: text}
	t.nodes = make([]node, 0, len(b.nodes))

	type frame struct {
		uIdx        int
		parent      NodeID
		parentDepth int64
	}
	// Root first.
	t.nodes = append(t.nodes, node{parent: NoNode, firstChild: NoNode, nextSibling: NoNode})

	stack := []frame{}
	pushChildren := func(uIdx int, parent NodeID, parentDepth int64) {
		// Pushed in sibling order, popped in reverse: each popped child is
		// prepended to its parent's list, which ends up in sibling order.
		kids := make([]int, 0, len(b.nodes[uIdx].children))
		for _, c := range b.nodes[uIdx].children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool {
			si, sj := b.nodes[kids[i]].start, b.nodes[kids[j]].start
			if text[si] != text[sj] {
				return text[si] < text[sj]
			}
			return si < sj
		})
		for _, k := range kids {
			stack = append(stack, frame{uIdx: k, parent: parent, parentDepth: parentDepth})
		}
	}
	pushChildren(0, 0, 0)

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		un := b.nodes[f.uIdx]
		start := int64(un.start)
		end := int64(un.end)
		isLeaf := un.children == nil || len(un.children) == 0
		if un.end == openEnd {
			end = int64(n)
		}
		if isLeaf {
			// The leaf's suffix starts at (edge start - parent depth); its
			// path must stop at (and include) its sequence's terminator.
			end = db.SuffixEnd(start-f.parentDepth) + 1
			if end <= start {
				// The whole remaining label is beyond the terminator; this
				// can only happen for the trivial suffix consisting of the
				// terminator alone, whose edge is exactly one symbol.
				end = start + 1
			}
		}
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, node{
			start:       int32(start),
			depth:       int32(f.parentDepth + (end - start)),
			parent:      f.parent,
			firstChild:  NoNode,
			nextSibling: NoNode,
		})
		// Prepend to the parent's child list.
		t.nodes[id].nextSibling = t.nodes[f.parent].firstChild
		t.nodes[f.parent].firstChild = id
		if !isLeaf {
			pushChildren(f.uIdx, id, f.parentDepth+(end-start))
		}
	}

	t.relayout()
	for id := range t.nodes {
		if t.IsLeaf(NodeID(id)) {
			t.numLeaves++
		} else {
			t.numInternal++
		}
	}
	return t, nil
}
