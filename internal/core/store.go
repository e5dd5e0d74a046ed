package core

// Structure-of-arrays search-node storage.
//
// The best-first loop used to traffic in *searchNode pointers: a ~120-byte
// struct per live node, a pointer heap whose comparisons chased two cache
// lines per level, and accepted-node reporting fields carried by every viable
// node.  The hot loop only ever touches a handful of those fields at a time,
// so the node state now lives in parallel arrays indexed by a small integer
// id ("structure of arrays"):
//
//	viable node id ──┬── nodeStore.ref[id]    suffix-tree node
//	                 ├── nodeStore.depth[id]  path depth
//	                 ├── nodeStore.cLo[id] ┐  live band interval
//	                 ├── nodeStore.cHi[id] ┘
//	                 ├── nodeStore.maxSc[id]  best score on the path
//	                 └── nodeStore.band[id]   column cells C[cLo..cHi]
//	                                          (int32, recycled by size class)
//
// Accepted nodes never expand and never store a column; their two reporting
// fields (subtree and score) live in a separate, much smaller accStore.  The
// priority queue (bucketQueue) holds 8-byte value entries chained per f value
// — no pointer dereference, no per-node allocation.
//
// Ids are recycled through per-store free lists, and both stores live in the
// Scratch so a warm engine reuses the arrays across queries.

// nodeStore holds every VIABLE search node of one search as parallel arrays.
// Scores and band cells are int32: cell values are bounded by the heuristic
// prefix sum h[0], which newSearcher caps well below 1<<31 (maxKernelScore).
type nodeStore struct {
	ref   []NodeRef
	depth []int32
	cLo   []int32
	cHi   []int32
	maxSc []int32
	band  [][]int32
	free  []int32
}

// alloc returns a free viable-node id, growing the arrays when the free list
// is empty (amortized arena growth; steady-state ids come from the free list).
// The caller overwrites every field, so entries are not zeroed.
//
//oasis:hotpath
func (ns *nodeStore) alloc() int32 {
	if n := len(ns.free); n > 0 {
		id := ns.free[n-1]
		ns.free = ns.free[:n-1]
		return id
	}
	id := int32(len(ns.ref))
	ns.ref = append(ns.ref, 0)
	ns.depth = append(ns.depth, 0)
	ns.cLo = append(ns.cLo, 0)
	ns.cHi = append(ns.cHi, 0)
	ns.maxSc = append(ns.maxSc, 0)
	ns.band = append(ns.band, nil)
	return id
}

// reset prepares the store for a new search.  Band slices still referenced by
// entries of an early-terminated search are dropped to the GC past what the
// scratch free lists keep (searcher.release recycles them first); bands of
// fully processed nodes were already recycled.
func (ns *nodeStore) reset() {
	ns.ref = ns.ref[:0]
	ns.depth = ns.depth[:0]
	ns.cLo = ns.cLo[:0]
	ns.cHi = ns.cHi[:0]
	ns.maxSc = ns.maxSc[:0]
	for i := range ns.band {
		ns.band[i] = nil
	}
	ns.band = ns.band[:0]
	ns.free = ns.free[:0]
}

// accStore holds every ACCEPTED node's reporting fields: the subtree to
// report and the score its sequences are reported with.
type accStore struct {
	ref   []NodeRef
	score []int32
	free  []int32
}

// alloc returns a free accumulator id, growing the arrays (amortized) when the
// free list is empty.
//
//oasis:hotpath
func (as *accStore) alloc() int32 {
	if n := len(as.free); n > 0 {
		id := as.free[n-1]
		as.free = as.free[:n-1]
		return id
	}
	id := int32(len(as.ref))
	as.ref = append(as.ref, 0)
	as.score = append(as.score, 0)
	return id
}

// release returns id to the free list, which grows amortized.
//
//oasis:hotpath
func (as *accStore) release(id int32) {
	as.free = append(as.free, id)
}

func (as *accStore) reset() {
	as.ref = as.ref[:0]
	as.score = as.score[:0]
	as.free = as.free[:0]
}

// bucketQueue is the search's priority queue.  Every pushed node has f in
// [minScore, h[0]], and h[0] is bounded by query length times the best
// substitution score, so the f domain is indexed directly: one FIFO lane pair
// — accepted entries first, then viable — per f value gives the total order
// (f descending, accepted before viable, insertion order last) with O(1)
// pushes and pops instead of a heap's cache-missing sift-downs: pops dominate
// the best-first loop at ~3 DP cells per column.
//
// The pop cursor (top) only ever rescans downward as far as new pushes raise
// it; with the admissible heuristic f is non-increasing along every search
// path, so the cursor's total downward travel per query is bounded by the f
// range, not the node count.
type bucketQueue struct {
	// ents is the entry arena, one entry per push, in push (seq) order.
	ents []bucketEnt
	// lanes[f-base] holds the two FIFO lanes for f.
	lanes []laneHeads
	// top is the highest lane offset that may be non-empty.
	top  int
	size int
	base int // f of lane offset 0 (= MinScore)
}

type bucketEnt struct {
	id   int32
	next int32 // arena index of the lane's next entry; -1 ends the lane
}

// laneHeads holds the head/tail arena indexes of one f value's two FIFO
// lanes (-1 = empty).
type laneHeads struct {
	accHead, accTail int32
	viaHead, viaTail int32
}

// maxBucketRange caps the f domain [MinScore, h[0]] a search may have (lanes
// cost 16 bytes per f value, 16 MB at the cap); newSearcher refuses wider
// ones.  It is sized so every query the servers admit fits with room to
// spare: 10,000 residues times the largest entry of any built-in matrix
// (PAM30's 13) is 130,000.
const maxBucketRange = 1 << 20

// init prepares the queue for f values in [base, fMax] (none when fMax < base).
func (q *bucketQueue) init(base, fMax int) {
	n := max(fMax-base+1, 0)
	if cap(q.lanes) < n {
		q.lanes = make([]laneHeads, n)
	}
	q.lanes = q.lanes[:n]
	for i := range q.lanes {
		q.lanes[i] = laneHeads{accHead: -1, accTail: -1, viaHead: -1, viaTail: -1}
	}
	q.ents = q.ents[:0]
	q.top = 0
	q.size = 0
	q.base = base
}

// push links entry id into lane f; the entry array grows amortized and reset
// keeps its capacity.
//
//oasis:hotpath
func (q *bucketQueue) push(f int, accepted bool, id int32) {
	off := f - q.base
	e := int32(len(q.ents))
	q.ents = append(q.ents, bucketEnt{id: id, next: -1})
	ln := &q.lanes[off]
	if accepted {
		if ln.accTail < 0 {
			ln.accHead = e
		} else {
			q.ents[ln.accTail].next = e
		}
		ln.accTail = e
	} else {
		if ln.viaTail < 0 {
			ln.viaHead = e
		} else {
			q.ents[ln.viaTail].next = e
		}
		ln.viaTail = e
	}
	if off > q.top {
		q.top = off
	}
	q.size++
}

// topF returns the highest queued f (advancing the cursor), or negInf when
// the queue is empty.
//
//oasis:hotpath
func (q *bucketQueue) topF() int {
	if q.size == 0 {
		return negInf
	}
	for {
		ln := &q.lanes[q.top]
		if ln.accHead >= 0 || ln.viaHead >= 0 {
			return q.base + q.top
		}
		q.top--
	}
}

//oasis:hotpath
func (q *bucketQueue) pop() (id int32, f int, accepted bool) {
	f = q.topF()
	ln := &q.lanes[q.top]
	var e int32
	if ln.accHead >= 0 {
		accepted = true
		e = ln.accHead
		ln.accHead = q.ents[e].next
		if ln.accHead < 0 {
			ln.accTail = -1
		}
	} else {
		e = ln.viaHead
		ln.viaHead = q.ents[e].next
		if ln.viaHead < 0 {
			ln.viaTail = -1
		}
	}
	q.size--
	return q.ents[e].id, f, accepted
}
