package suffixtree

import (
	"fmt"
	"math"

	"repro/internal/seq"
)

// maxBuildSymbols is the longest concatenated view either builder accepts:
// node edge starts are int32, and Build's mapped text, suffix array and LCP
// array are int32 and hold one sentinel past the view.  A variable only so
// tests can lower it.
var maxBuildSymbols = math.MaxInt32 - 2

// Build constructs the generalized suffix tree of the whole database from its
// suffix array: SA-IS (Nong, Zhang & Chan, DCC 2009) sorts the suffixes,
// Kasai et al. (CPM 2001) gives the longest common prefix of each adjacent
// pair, and one left-to-right pass over the two grows the tree along its
// rightmost path.  The tree equals BuildUkkonen's node for node, edge starts
// included; it is built without child maps and without sorting.
func Build(db *seq.Database) (*Tree, error) {
	if db == nil {
		return nil, fmt.Errorf("suffixtree: nil database")
	}
	text := db.Concat()
	n := len(text)
	if err := checkBuildSymbols(n); err != nil {
		return nil, err
	}
	// Residue c becomes c+1 and the terminator of sequence k becomes σ+1+k,
	// before a 0 sentinel: terminators are distinct (no suffix runs past its
	// own), sort above every residue and rise with position — the sibling
	// order BuildUkkonen's freeze gives its tree.
	sym := make([]int32, n+1)
	k := int32(db.Alphabet().Size()) + 1
	for i, c := range text {
		if c == seq.Terminator {
			sym[i] = k
			k++
		} else {
			sym[i] = int32(c) + 1
		}
	}
	sa := make([]int32, n+1)
	sais(sym, sa, int(k))
	lcp := kasai(sym, sa)

	// n leaves and the internal nodes counted up front: never regrown.  The
	// builder tests compare numInternal with BuildUkkonen's, so a miscount
	// fails them.
	t := &Tree{db: db, text: text, numLeaves: n, numInternal: internalNodes(lcp)}
	t.nodes = make([]node, 1, n+t.numInternal)
	t.nodes[0] = node{parent: NoNode, firstChild: NoNode, nextSibling: NoNode}
	stack := []frame{{id: 0, last: NoNode}}
	for i := 1; i <= n; i++ { // sa[0] is the sentinel
		p := sa[i]
		stack = t.closeBelow(stack, lcp[i])
		top := &stack[len(stack)-1]
		leaf := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, node{parent: top.id, firstChild: NoNode, nextSibling: NoNode,
			depth: int32(db.SuffixEnd(int64(p))+1) - p})
		prev := top.last
		if prev == NoNode {
			t.nodes[top.id].firstChild = leaf
		} else {
			t.nodes[prev].nextSibling = leaf
		}
		top.last = leaf
		stack = append(stack, frame{id: leaf, prev: prev, last: NoNode, min: p})
	}
	t.closeBelow(stack, 0)
	t.relayout()
	return t, nil
}

// checkBuildSymbols refuses a concatenated view of n symbols past
// maxBuildSymbols.
func checkBuildSymbols(n int) error {
	if n > maxBuildSymbols {
		return fmt.Errorf("suffixtree: %d symbols exceed the builders' limit of %d", n, maxBuildSymbols)
	}
	return nil
}

// internalNodes counts the internal nodes, root included, of the tree whose
// suffix array has the LCP array lcp: one per lcp-interval of positive depth
// (Abouelhoda, Kurtz & Ohlebusch, J. Discrete Algorithms 2004), found with
// the stack of open interval depths that closeBelow keeps as nodes.
func internalNodes(lcp []int32) int {
	count := 1
	open := []int32{0}
	for _, l := range lcp {
		for open[len(open)-1] > l {
			open = open[:len(open)-1]
		}
		if open[len(open)-1] < l {
			open = append(open, l)
			count++
		}
	}
	return count
}

// frame is one node of the rightmost path while Build runs.
type frame struct {
	id   NodeID
	prev NodeID // the sibling before id, NoNode for a first child
	last NodeID // id's last child so far
	min  int32  // the smallest suffix start in id's subtree so far
}

// closeBelow pops every node of the rightmost path deeper than l: the next
// suffix branches off at depth l, so their subtrees are complete.  Where the
// branch falls inside the last popped node's edge, a new internal node at
// depth l takes that node's place.  A closed node's edge starts at the
// smallest suffix start in its subtree plus its parent's depth — where
// Ukkonen's construction leaves it.
func (t *Tree) closeBelow(stack []frame, l int32) []frame {
	for t.nodes[stack[len(stack)-1].id].depth > l {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		top := &stack[len(stack)-1]
		pd := t.nodes[top.id].depth
		if pd < l {
			mid := NodeID(len(t.nodes))
			t.nodes = append(t.nodes, node{parent: top.id, firstChild: x.id, nextSibling: NoNode,
				depth: l})
			if x.prev == NoNode {
				t.nodes[top.id].firstChild = mid
			} else {
				t.nodes[x.prev].nextSibling = mid
			}
			top.last = mid
			t.nodes[x.id].parent = mid
			stack = append(stack, frame{id: mid, prev: x.prev, last: x.id, min: x.min})
			pd = l
		} else if x.min < top.min {
			top.min = x.min
		}
		t.nodes[x.id].start = x.min + pd
	}
	return stack
}

// kasai returns lcp with lcp[i] the length of the longest common prefix of
// the suffixes at sa[i-1] and sa[i]; lcp[0] is 0.  text must end in a unique
// sentinel, which stops every comparison.
func kasai(text, sa []int32) []int32 {
	rank := make([]int32, len(text))
	for i, p := range sa {
		rank[p] = int32(i)
	}
	lcp := make([]int32, len(text))
	var h int32
	for p := range int32(len(text)) {
		r := rank[p]
		if r == 0 {
			continue // the sentinel, which is last: h is spent
		}
		q := sa[r-1]
		for text[p+h] == text[q+h] {
			h++
		}
		lcp[r] = h
		if h > 0 {
			h--
		}
	}
	return lcp
}

// sais fills sa with the suffix array of text by induced sorting.  The
// symbols of text lie in [0, k) and its last symbol is a 0 found nowhere
// else.
func sais(text, sa []int32, k int) {
	n := len(text)
	if n == 1 {
		sa[0] = 0
		return
	}
	// isS[i]: the suffix at i sorts below the one at i+1 (S-type).  An LMS
	// position is an S-type one right after an L-type one.
	isS := make([]bool, n)
	isS[n-1] = true
	for i := n - 2; i >= 0; i-- {
		isS[i] = text[i] < text[i+1] || text[i] == text[i+1] && isS[i+1]
	}
	counts := make([]int32, k)
	for _, c := range text {
		counts[c]++
	}
	bkt := make([]int32, k)

	// Sort the LMS substrings: seed them at their bucket ends and induce.
	for i := range sa {
		sa[i] = -1
	}
	bucketEnds(counts, bkt)
	for i := int32(1); i < int32(n); i++ {
		if isLMS(isS, i) {
			c := text[i]
			bkt[c]--
			sa[bkt[c]] = i
		}
	}
	induce(text, sa, isS, counts, bkt)

	// Name them in sorted order, equal substrings alike, and pack the names
	// in text order at the end of sa: the reduced string.
	n1 := 0
	for _, p := range sa {
		if isLMS(isS, p) {
			sa[n1] = p
			n1++
		}
	}
	names := sa[n1:]
	for i := range names {
		names[i] = -1
	}
	name, prev := int32(0), int32(-1)
	for _, p := range sa[:n1] {
		if prev < 0 || !equalLMS(text, isS, prev, p) {
			name++
			prev = p
		}
		names[p/2] = name - 1
	}
	j := n - 1
	for i := n - 1; i >= n1; i-- {
		if sa[i] >= 0 {
			sa[j] = sa[i]
			j--
		}
	}

	// Sort the LMS suffixes: recurse unless every name is distinct.
	s1, sa1 := sa[n-n1:], sa[:n1]
	if int(name) < n1 {
		sais(s1, sa1, int(name))
	} else {
		for i, c := range s1 {
			sa1[c] = int32(i)
		}
	}

	// Induce every suffix from the sorted LMS suffixes.
	j = 0
	for i := int32(1); i < int32(n); i++ {
		if isLMS(isS, i) {
			s1[j] = i
			j++
		}
	}
	for i, r := range sa1 {
		sa1[i] = s1[r]
	}
	for i := n1; i < n; i++ {
		sa[i] = -1
	}
	bucketEnds(counts, bkt)
	for i := n1 - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = -1
		c := text[p]
		bkt[c]--
		sa[bkt[c]] = p
	}
	induce(text, sa, isS, counts, bkt)
}

// induce places the L-type suffixes left to right from those already in sa,
// then the S-type suffixes right to left.
func induce(text, sa []int32, isS []bool, counts, bkt []int32) {
	bucketStarts(counts, bkt)
	for i := range sa {
		if p := sa[i] - 1; p >= 0 && !isS[p] {
			c := text[p]
			sa[bkt[c]] = p
			bkt[c]++
		}
	}
	bucketEnds(counts, bkt)
	for i := len(sa) - 1; i >= 0; i-- {
		if p := sa[i] - 1; p >= 0 && isS[p] {
			c := text[p]
			bkt[c]--
			sa[bkt[c]] = p
		}
	}
}

func isLMS(isS []bool, i int32) bool { return i > 0 && isS[i] && !isS[i-1] }

// equalLMS reports whether the LMS substrings at a and b — each up to and
// including the next LMS position — are equal in symbols and types.  The
// unique sentinel ends the comparison before either runs off the text.
func equalLMS(text []int32, isS []bool, a, b int32) bool {
	for d := int32(0); ; d++ {
		if text[a+d] != text[b+d] || isS[a+d] != isS[b+d] {
			return false
		}
		if d > 0 && isLMS(isS, a+d) {
			return true
		}
	}
}

func bucketStarts(counts, bkt []int32) {
	var sum int32
	for c, m := range counts {
		bkt[c] = sum
		sum += m
	}
}

func bucketEnds(counts, bkt []int32) {
	var sum int32
	for c, m := range counts {
		sum += m
		bkt[c] = sum
	}
}
