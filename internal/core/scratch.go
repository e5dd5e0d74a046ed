package core

import "repro/internal/score"

// Scratch holds every reusable buffer a searcher needs, so a long-running
// engine can run many queries without re-allocating per query: the reported
// flags, the DP column scratch pair, the heuristic and profile vectors, the
// structure-of-arrays node stores (see store.go), the recycled band free
// lists and the priority queue's lanes and entry arena.
//
// A Scratch may be reused across queries of different lengths and across
// indexes of different sizes (buffers grow on demand and reported flags are
// cleared lazily), but it must only serve one search at a time: it is NOT
// safe for concurrent use.  Long-running engines keep one Scratch per worker
// (see internal/shard and internal/engine).
type Scratch struct {
	// reported flags sequences already reported by the current search; the
	// indexes set to true are recorded in touched so the next search clears
	// them in O(hits) instead of O(sequences).
	reported []bool
	touched  []int
	// prevBuf/curBuf are the column sweep's scratch pair (m+1 cells).
	prevBuf []int32
	curBuf  []int32
	// h is the heuristic vector buffer; h32 its int32 copy for the kernel.
	h   []int
	h32 []int32
	// prof is the row-major query profile (prof[(i-1)*width + sym]).
	prof []int32
	// freeBands recycles band slices, bucketed by power-of-two capacity class
	// (see searcher.allocBand).  Band classes are query-length independent,
	// so recycled bands carry over between queries of different lengths
	// without capacity checks.
	freeBands [][][]int32
	// nodes/acc are the structure-of-arrays stores for viable and accepted
	// search nodes (store.go); reset between queries, arrays reused.
	nodes nodeStore
	acc   accStore
	// bq is the bucket priority queue (lanes and entry arena reused across
	// queries).
	bq bucketQueue
}

// NewScratch returns an empty Scratch; buffers are allocated and grown by the
// searches that use it.
func NewScratch() *Scratch { return &Scratch{} }

// acquire prepares the scratch for a new search over a catalog of n sequences
// and a query of length m: flags left by the previous search are cleared and
// the fixed-size buffers are grown as needed.
func (sc *Scratch) acquire(n, m int, matrix *score.Matrix, query []byte) {
	for _, i := range sc.touched {
		if i < len(sc.reported) {
			sc.reported[i] = false
		}
	}
	sc.touched = sc.touched[:0]
	if len(sc.reported) < n {
		sc.reported = make([]bool, n)
	}
	if cap(sc.prevBuf) < m+1 {
		sc.prevBuf = make([]int32, m+1)
	}
	sc.prevBuf = sc.prevBuf[:m+1]
	if cap(sc.curBuf) < m+1 {
		sc.curBuf = make([]int32, m+1)
	}
	sc.curBuf = sc.curBuf[:m+1]
	sc.h = HeuristicVectorInto(sc.h, query, matrix)
	if cap(sc.h32) < m+1 {
		sc.h32 = make([]int32, m+1)
	}
	sc.h32 = sc.h32[:m+1]
	for i, v := range sc.h {
		sc.h32[i] = int32(v)
	}
	width := matrix.Size()
	need := m * width
	if cap(sc.prof) < need {
		sc.prof = make([]int32, need)
	}
	sc.prof = sc.prof[:need]
	for i, q := range query {
		for sym := 0; sym < width; sym++ {
			sc.prof[i*width+sym] = int32(matrix.Score(q, byte(sym)))
		}
	}
	sc.nodes.reset()
	sc.acc.reset()
}
