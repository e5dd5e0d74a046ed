package suffixtree

import (
	"fmt"
	"sort"

	"repro/internal/seq"
)

// BuildSorted constructs the generalized suffix tree by sorting every suffix
// lexicographically and inserting them in order while maintaining the
// rightmost path (the classic suffix-array-to-suffix-tree construction).
//
// It is O(n log n * avgLCP) — slower than Ukkonen on large inputs — but
// simple: it is the reference the equivalence tests compare BuildUkkonen's
// tree against.
func BuildSorted(db *seq.Database) (*Tree, error) {
	if db == nil {
		return nil, fmt.Errorf("suffixtree: nil database")
	}
	positions := make([]int64, db.ConcatLen())
	for i := range positions {
		positions[i] = int64(i)
	}
	b := newRightmostBuilder(db)
	sort.Slice(positions, func(i, j int) bool {
		return compareSuffixesFast(b.text, b.ends, positions[i], positions[j]) < 0
	})
	for _, p := range positions {
		b.insert(p)
	}
	return b.finish()
}

// suffixEnds precomputes, for every position of the concatenated view, the
// exclusive end of the suffix starting there (one past its terminator).
// Using this table avoids a binary search per suffix comparison.
func suffixEnds(db *seq.Database) []int64 {
	ends := make([]int64, db.ConcatLen())
	for i := 0; i < db.NumSequences(); i++ {
		start := db.SequenceStart(i)
		term := db.SequenceEnd(i) // position of the terminator
		for p := start; p <= term; p++ {
			ends[p] = term + 1
		}
	}
	return ends
}

// compareSuffixesFast lexicographically compares the suffixes starting at
// positions a and b, using a precomputed end table (suffixEnds) and treating
// terminators as distinct symbols that never match each other (ties are
// broken by position so the order is total).
func compareSuffixesFast(text []byte, ends []int64, a, b int64) int {
	if a == b {
		return 0
	}
	endA, endB := ends[a], ends[b]
	i, j := a, b
	for i < endA && j < endB {
		ca, cb := text[i], text[j]
		if ca == seq.Terminator && cb == seq.Terminator {
			// Distinct virtual terminators: order by position.
			if a < b {
				return -1
			}
			return 1
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
		j++
	}
	// One suffix exhausted; only possible when both hit their terminator at
	// the same offset (handled above) or lengths differ.
	la, lb := endA-a, endB-b
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// suffixLCPFast returns the number of leading symbols the suffixes at
// positions a and b share, never matching one terminator with another.
func suffixLCPFast(text []byte, ends []int64, a, b int64) int64 {
	endA, endB := ends[a], ends[b]
	var l int64
	for a+l < endA && b+l < endB {
		ca, cb := text[a+l], text[b+l]
		if ca != cb || ca == seq.Terminator {
			break
		}
		l++
	}
	return l
}

// rightmostBuilder incrementally constructs a tree from suffixes supplied in
// lexicographic order, maintaining the rightmost root-to-leaf path.
type rightmostBuilder struct {
	db   *seq.Database
	text []byte
	ends []int64

	nodes    []node
	children [][]NodeID // per-node child list, converted to links at the end
	stack    []NodeID   // rightmost path, root first
	prev     int64      // previous suffix position, -1 before the first
}

func newRightmostBuilder(db *seq.Database) *rightmostBuilder {
	b := &rightmostBuilder{db: db, text: db.Concat(), ends: suffixEnds(db), prev: -1}
	b.nodes = append(b.nodes, node{parent: NoNode, firstChild: NoNode, nextSibling: NoNode, suffixStart: -1})
	b.children = append(b.children, nil)
	b.stack = append(b.stack, 0)
	return b
}

func (b *rightmostBuilder) newNode(n node) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	b.children = append(b.children, nil)
	return id
}

func (b *rightmostBuilder) depth(id NodeID) int64 { return int64(b.nodes[id].depth) }

// insert adds the suffix starting at position p.  Suffixes must arrive in
// lexicographic order.
func (b *rightmostBuilder) insert(p int64) {
	suffixEnd := b.ends[p] // one past the terminator
	var l int64
	if b.prev >= 0 {
		l = suffixLCPFast(b.text, b.ends, b.prev, p)
	}
	// Pop the rightmost path until the top node's depth is <= l.
	var lastPopped = NoNode
	for b.depth(b.stack[len(b.stack)-1]) > l {
		lastPopped = b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
	}
	top := b.stack[len(b.stack)-1]
	attach := top
	if b.depth(top) < l {
		// Split lastPopped's incoming edge at depth l.
		lp := lastPopped
		mid := b.newNode(node{
			start:       b.nodes[lp].start,
			end:         b.nodes[lp].start + (l - b.depth(top)),
			parent:      top,
			firstChild:  NoNode,
			nextSibling: NoNode,
			depth:       int32(l),
			suffixStart: -1,
		})
		// Replace lp with mid in top's child list.
		kids := b.children[top]
		for i, c := range kids {
			if c == lp {
				kids[i] = mid
				break
			}
		}
		b.nodes[lp].start += l - b.depth(top)
		b.nodes[lp].parent = mid
		b.children[mid] = append(b.children[mid], lp)
		b.stack = append(b.stack, mid)
		attach = mid
	}
	leaf := b.newNode(node{
		start:       p + l,
		end:         suffixEnd,
		parent:      attach,
		firstChild:  NoNode,
		nextSibling: NoNode,
		depth:       int32(suffixEnd - p),
		suffixStart: p,
	})
	b.children[attach] = append(b.children[attach], leaf)
	b.stack = append(b.stack, leaf)
	b.prev = p
}

// finish converts the child lists into sibling links and returns the tree.
func (b *rightmostBuilder) finish() (*Tree, error) {
	t := &Tree{db: b.db, text: b.text, nodes: b.nodes}
	for id, kids := range b.children {
		if len(kids) == 0 {
			t.nodes[id].firstChild = NoNode
			continue
		}
		t.nodes[id].firstChild = kids[0]
		for i := range kids {
			if i+1 < len(kids) {
				t.nodes[kids[i]].nextSibling = kids[i+1]
			} else {
				t.nodes[kids[i]].nextSibling = NoNode
			}
		}
	}
	t.sortChildren()
	for _, nd := range t.nodes {
		if nd.firstChild == NoNode && nd.suffixStart >= 0 {
			t.numLeaves++
		} else {
			t.numInternal++
		}
	}
	return t, nil
}
