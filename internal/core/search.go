package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/score"
)

// negInf is the pruned-score sentinel (alias of score.NegInf).
const negInf = score.NegInf

// maxKernelScore caps the heuristic prefix sum h[0] (the largest score any
// search over the query could produce).  Cell values and priority bounds are
// kept in int32 (see store.go); the cap leaves headroom so no sum the
// kernel forms — including sentinel arithmetic around negInf — can leave the
// int32 domain.  It allows queries up to hundreds of millions of residues of
// best-case score before refusing.
const maxKernelScore = 1 << 28

// Options configures an OASIS search.
type Options struct {
	// Scheme is the substitution matrix and (linear) gap penalty.
	Scheme score.Scheme
	// MinScore is the minimum alignment score for a sequence to be
	// reported (paper parameter minScore; derived from an E-value via
	// score.KarlinAltschul.MinScore).  Must be >= 1.
	MinScore int
	// MaxResults stops the search after this many sequences have been
	// reported (0 = report every qualifying sequence).  Because results
	// arrive in decreasing score order this yields the top-k sequences.
	MaxResults int
	// KA, when non-nil, attaches E-values to reported hits.
	KA *score.KarlinAltschul
	// Stats, when non-nil, accumulates work counters.
	Stats *Stats
	// ReferenceKernel is ignored: the search has one kernel.  The field stays
	// only because benchmark/layers.go sets it; ROADMAP direction 1(b)
	// removes both that benchmark rung and the field.
	ReferenceKernel bool
	// Scratch, when non-nil, supplies reusable search buffers so warm
	// engines avoid per-query allocation.  A Scratch must serve at most one
	// search at a time; results are identical with or without it.
	Scratch *Scratch
	// Context, when non-nil, cancels an in-flight search from inside the DP
	// sweep: the searcher polls Context.Err() every cancelPollColumns
	// columns, so even a long hit-less stretch (where no report callback
	// runs that a caller could cancel from) observes cancellation promptly.
	// A cancelled search returns the context's error.
	Context context.Context
	// StrictShards makes a sharded search fail outright when any shard
	// fails, instead of quarantining the shard and completing a degraded
	// stream from the survivors (see Stats.Degraded).  Single-index searches
	// ignore it.
	StrictShards bool
}

// cancelPollColumns is the cancellation poll interval: one Context.Err() call
// per this many DP columns keeps poll overhead well under the column sweep
// cost while bounding the work done after cancellation.
const cancelPollColumns = 256

// Hit is one reported sequence with the score of its strongest local
// alignment to the query (OASIS duplicates S-W's one-hit-per-sequence
// reporting, paper Section 3).  It carries no alignment: RecoverAlignment
// rebuilds one.
type Hit struct {
	// SeqIndex and SeqID identify the database sequence.
	SeqIndex int
	SeqID    string
	// Score is the optimal local-alignment score for this sequence.
	Score int
	// EValue is the expectation value when Options.KA was provided.
	EValue float64
	// Rank is the position of this hit in the result stream (1 = first
	// and therefore highest-scoring).
	Rank int
}

// Stats accumulates the work counters used by the paper's filtering
// comparison (Figure 4) and by the ablation benchmarks.
//
// A multi-stream search (internal/shard) adds up every stream's work.  When
// it stops early (MaxResults, or report returning false) its streams race on
// until they see the cancellation, so the work counters — ColumnsExpanded
// first — may differ run to run for the same truncated query; the hits and
// SequencesReported do not.
type Stats struct {
	// ColumnsExpanded counts dynamic-programming columns filled in (the
	// paper's filtering metric).
	ColumnsExpanded int64
	// CellsComputed counts individual matrix cells evaluated.
	CellsComputed int64
	// NodesExpanded counts suffix-tree nodes whose children were expanded.
	NodesExpanded int64
	// NodesPushed counts search nodes pushed onto the priority queue.
	NodesPushed int64
	// NodesAccepted counts nodes tagged ACCEPTED.
	NodesAccepted int64
	// NodesUnviable counts nodes discarded as UNVIABLE.
	NodesUnviable int64
	// MaxQueueSize is the high-water mark of the priority queue.
	MaxQueueSize int
	// MaxBandWidth is the widest live band stored on any viable search node
	// (cells, not query length).  Column storage is band-sized, so this also
	// bounds the per-node memory the search ever requested.
	MaxBandWidth int
	// SequencesReported counts the hits delivered to the caller.
	SequencesReported int64
	// Degraded marks a sharded search that lost one or more shards and
	// completed from the survivors: the hit stream is still in decreasing
	// score order but covers only the surviving shards' sequences.
	// ShardErrors carries the per-shard detail.  Options.StrictShards turns
	// degradation into a search error instead.
	Degraded    bool         `json:"degraded,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

// ShardError describes one quarantined shard of a degraded search.
type ShardError struct {
	// Shard is the failed shard's index.
	Shard int `json:"shard"`
	// Err is the failure description.
	Err string `json:"error"`
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.ColumnsExpanded += other.ColumnsExpanded
	s.CellsComputed += other.CellsComputed
	s.NodesExpanded += other.NodesExpanded
	s.NodesPushed += other.NodesPushed
	s.NodesAccepted += other.NodesAccepted
	s.NodesUnviable += other.NodesUnviable
	s.SequencesReported += other.SequencesReported
	if other.MaxQueueSize > s.MaxQueueSize {
		s.MaxQueueSize = other.MaxQueueSize
	}
	if other.MaxBandWidth > s.MaxBandWidth {
		s.MaxBandWidth = other.MaxBandWidth
	}
	if other.Degraded {
		s.Degraded = true
	}
	s.ShardErrors = append(s.ShardErrors, other.ShardErrors...)
}

// Search runs the OASIS algorithm for query over the index and calls report
// once per qualifying database sequence, in decreasing order of alignment
// score (the paper's online property).  The search stops when report returns
// false, when MaxResults sequences have been reported, or when the priority
// queue is exhausted.
func Search(idx Index, query []byte, opts Options, report func(Hit) bool) error {
	return SearchStream(idx, query, opts, report, nil)
}

// SearchStream is Search with a frontier hook: frontier is invoked with the
// f-value of every node popped from the priority queue.  Because the queue is
// a max-heap over f and f bounds every score obtainable at or below a node,
// each callback value is a (non-increasing) upper bound on the score of any
// hit the search can still report — including hits reported by the node just
// popped.  Returning false from frontier cancels the search (like returning
// false from report).
//
// The hook is what makes score-ordered merging of concurrent searches
// possible (see internal/shard): a merger may release a buffered hit as soon
// as its score is >= every other stream's latest frontier bound.
func SearchStream(idx Index, query []byte, opts Options, report func(Hit) bool, frontier func(bound int) bool) error {
	s, err := newSearcher(idx, query, opts)
	if err != nil {
		return err
	}
	defer s.release()
	s.frontier = frontier
	return s.runFromRoot(report)
}

// SearchAll runs Search and collects every hit.
func SearchAll(idx Index, query []byte, opts Options) ([]Hit, error) {
	var hits []Hit
	err := Search(idx, query, opts, func(h Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}

// searcher holds the state of one OASIS search.  Its buffers live in a
// Scratch (either caller-supplied via Options.Scratch or private to this
// search) so warm engines can reuse them across queries; release copies the
// mutable slice headers back when the search finishes.
type searcher struct {
	idx   Index
	cat   Catalog
	query []byte
	opts  Options
	sc    *Scratch
	h     []int   // heuristic vector, length m+1
	h32   []int32 // the kernel's int32 copy of h
	// bq is the priority queue: O(1) buckets over the f domain
	// [MinScore, h[0]] (lives in sc).
	bq       *bucketQueue
	nodes    *nodeStore // viable-node structure-of-arrays (lives in sc)
	acc      *accStore  // accepted-node bookkeeping, packed separately
	reported []bool
	nHits    int
	stats    *Stats
	// frontier, when non-nil, receives the f-value of every popped node
	// (see SearchStream).
	frontier func(bound int) bool
	// ctx/pollCountdown implement Options.Context: the countdown decrements
	// once per DP column across expansions, and each time it hits zero the
	// context is polled (ctx is nil when the search has no context).
	ctx           context.Context
	pollCountdown int
	// prevBuf/curBuf are scratch columns (m+1 cells) reused across
	// expansions.
	prevBuf []int32
	curBuf  []int32
	// freeBands recycles the band slices of popped viable nodes, bucketed by
	// power-of-two capacity class so a recycled slice always fits requests of
	// its class (see allocBand).
	freeBands [][][]int32
	// prof is the query profile in row-major order (prof[(i-1)*profWidth +
	// sym]).
	prof      []int32
	profWidth int
	// full widens every live band to the whole column (rows 1..m; row 0 is
	// provably dead below the root and never computed), the exhaustive
	// sweep of the original implementation.  Results are identical either
	// way; no search sets it — it is the oracle this package's live-band
	// tests compare the band against.
	full bool
	// childFn and leafFn are s.visitChild and s.visitLeaf, bound once per
	// search so the loop hands the index no new closure per node; the fields
	// after them are those callbacks' per-call state.
	childFn  func(child NodeRef, label []byte) error
	leafFn   func(pos int64) bool
	parentID int32          // the viable node being expanded
	accID    int32          // the accepted node being reported
	report   func(Hit) bool // run's hit callback
	accDone  bool           // the leaf walk finished the search
	accErr   error          // the leaf walk failed
}

func newSearcher(idx Index, query []byte, opts Options) (*searcher, error) {
	if idx == nil {
		return nil, fmt.Errorf("core: nil index")
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	if err := opts.Scheme.Validate(); err != nil {
		return nil, err
	}
	if opts.MinScore < 1 {
		return nil, fmt.Errorf("core: MinScore must be >= 1, got %d", opts.MinScore)
	}
	cat := idx.Catalog()
	if !cat.Alphabet().ValidCodes(query) {
		return nil, fmt.Errorf("core: query contains symbols outside the %q alphabet", cat.Alphabet().Name())
	}
	if opts.Scheme.Matrix.Alphabet() != cat.Alphabet() {
		return nil, fmt.Errorf("core: matrix %q is over a different alphabet than the index", opts.Scheme.Matrix.Name())
	}
	st := opts.Stats
	if st == nil {
		st = &Stats{}
	}
	mat := opts.Scheme.Matrix
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	sc.acquire(cat.NumSequences(), len(query), mat, query)
	if sc.h[0] > maxKernelScore {
		return nil, fmt.Errorf("core: query heuristic bound %d exceeds the kernel's score capacity %d", sc.h[0], maxKernelScore)
	}
	if sc.h[0]-opts.MinScore >= maxBucketRange {
		return nil, fmt.Errorf("core: query score range [%d, %d] exceeds the priority queue's capacity of %d values; raise MinScore or shorten the query", opts.MinScore, sc.h[0], maxBucketRange)
	}
	s := &searcher{
		idx:       idx,
		cat:       cat,
		query:     query,
		opts:      opts,
		sc:        sc,
		bq:        &sc.bq,
		h:         sc.h,
		h32:       sc.h32,
		nodes:     &sc.nodes,
		acc:       &sc.acc,
		reported:  sc.reported[:cat.NumSequences()],
		stats:     st,
		prevBuf:   sc.prevBuf,
		curBuf:    sc.curBuf,
		freeBands: sc.freeBands,
		prof:      sc.prof,
		profWidth: mat.Size(),
		ctx:       opts.Context,

		pollCountdown: cancelPollColumns,
	}
	s.childFn, s.leafFn = s.visitChild, s.visitLeaf
	// When even h[0] cannot reach MinScore nothing is ever pushed and the
	// queue has no lanes.
	s.bq.init(opts.MinScore, sc.h[0])
	return s, nil
}

// release hands the searcher's buffers, queued nodes' bands included, back to
// the scratch so the next search over it starts warm.  Safe to call exactly
// once, on every exit path of Search/SearchStream.
func (s *searcher) release() {
	for _, b := range s.nodes.band {
		s.recycleBand(b)
	}
	sc := s.sc
	sc.prevBuf = s.prevBuf
	sc.curBuf = s.curBuf
	sc.freeBands = s.freeBands
	sc.nodes.reset()
	sc.acc.reset()
}

// bandClass buckets a band width into its power-of-two size class, so the
// free lists hand out slices whose capacity (1 << class) always covers the
// request while over-allocating by less than 2x.
func bandClass(width int) int {
	return bits.Len(uint(width - 1))
}

// allocBand returns a band buffer of the given width (in cells), reusing a
// recycled slice of the same size class when available.  Band buffers are
// arena-style: capacity is the class's power of two, length the live width.
// The class table grows to log2 of the widest band, and make runs only while
// a class's free list is empty, so the arena warms up once per size class.
//
//oasis:hotpath
func (s *searcher) allocBand(width int) []int32 {
	if width > s.stats.MaxBandWidth {
		s.stats.MaxBandWidth = width
	}
	class := bandClass(width)
	for len(s.freeBands) <= class {
		s.freeBands = append(s.freeBands, nil)
	}
	if n := len(s.freeBands[class]); n > 0 {
		b := s.freeBands[class][n-1]
		s.freeBands[class][n-1] = nil
		s.freeBands[class] = s.freeBands[class][:n-1]
		return b[:width]
	}
	return make([]int32, width, 1<<class)
}

// recycleBand returns a node's band buffer to its size-class free list, which
// grows amortized and is capped at 256 entries.
//
//oasis:hotpath
func (s *searcher) recycleBand(b []int32) {
	if b == nil {
		return
	}
	class := bandClass(cap(b))
	if cap(b) != 1<<class {
		// Not an arena slice (should not happen); drop it.
		return
	}
	for len(s.freeBands) <= class {
		s.freeBands = append(s.freeBands, nil)
	}
	if len(s.freeBands[class]) < 256 {
		s.freeBands[class] = append(s.freeBands[class], b)
	}
}

// releaseViable recycles a fully processed viable node: its band goes back to
// the size-class free lists and its id to the store's free list (amortized
// growth).
//
//oasis:hotpath
func (s *searcher) releaseViable(id int32) {
	ns := s.nodes
	s.recycleBand(ns.band[id])
	ns.band[id] = nil
	ns.free = append(ns.free, id)
}

// HeuristicVector computes the paper's admissible heuristic: H[i] is an
// upper bound on the score of aligning the query remainder Q[i+1..m] against
// any target (the suffix sum of each remaining symbol's best possible
// substitution score, never below zero per symbol).
func HeuristicVector(query []byte, m *score.Matrix) []int {
	return HeuristicVectorInto(nil, query, m)
}

// HeuristicVectorInto is HeuristicVector writing into buf (grown as needed),
// so warm engines can reuse the allocation across queries.
func HeuristicVectorInto(buf []int, query []byte, m *score.Matrix) []int {
	if cap(buf) < len(query)+1 {
		buf = make([]int, len(query)+1)
	}
	h := buf[:len(query)+1]
	h[len(query)] = 0
	for i := len(query) - 1; i >= 0; i-- {
		best := m.RowMax(query[i])
		if best < 0 {
			best = 0
		}
		h[i] = h[i+1] + best
	}
	return h
}

// runFromRoot seeds the queue with the root node and runs the best-first
// loop over the whole index.
func (s *searcher) runFromRoot(report func(Hit) bool) error {
	if id, f, ok := s.rootNode(); ok {
		s.push(f, false, id)
	}
	return s.run(report)
}

// run executes the main best-first loop (paper Algorithm 1) from the nodes
// runFromRoot pushed.  Once the queue and band free lists are warm it
// allocates nothing per node.
//
//oasis:hotpath
func (s *searcher) run(report func(Hit) bool) error {
	s.report = report
	for {
		if s.bq.size == 0 {
			return nil
		}
		id, f, accepted := s.bq.pop()
		if s.frontier != nil && !s.frontier(f) {
			return nil // release recycles the popped node's band with the rest
		}
		if accepted {
			done, err := s.reportAccepted(id)
			s.acc.release(id)
			if done || err != nil {
				return err
			}
			continue
		}
		// Viable: expand every child of the corresponding suffix-tree node.
		s.stats.NodesExpanded++
		s.parentID = id
		err := s.idx.VisitChildren(s.nodes.ref[id], int(s.nodes.depth[id]), s.childFn)
		// The popped node (and its column vector) is no longer needed.
		s.releaseViable(id)
		if err != nil {
			return err
		}
	}
}

// visitChild is the VisitChildren callback (s.childFn): it expands one child
// of the node s.parentID and queues the child unless it is unviable.
//
//oasis:hotpath
func (s *searcher) visitChild(child NodeRef, label []byte) error {
	r, err := s.expand(s.parentID, child, label)
	if r.ok {
		s.push(r.f, r.accepted, r.id)
	}
	return err
}

// rootNode builds the initial search node (paper Algorithm 2): the score
// vector is zero (alignments may skip any query prefix for free), pruned
// where even the full heuristic cannot reach minScore.  Because the
// heuristic is non-increasing in i, the live cells form the prefix [0, hi].
func (s *searcher) rootNode() (id int32, f int, ok bool) {
	m := len(s.query)
	hi := -1
	f = negInf
	for i := 0; i <= m; i++ {
		if s.h[i] >= s.opts.MinScore {
			hi = i
			if s.h[i] > f {
				f = s.h[i]
			}
		}
	}
	if hi < 0 {
		// Even a perfect match of the whole query cannot reach minScore.
		return -1, 0, false
	}
	lo := 0
	if s.full {
		hi = m
	}
	band := s.allocBand(hi - lo + 1)
	for i := lo; i <= hi; i++ {
		if s.h[i] >= s.opts.MinScore {
			band[i-lo] = 0
		} else {
			band[i-lo] = negInf32 // full-sweep mode stores the pruned tail too
		}
	}
	ns := s.nodes
	id = ns.alloc()
	ns.ref[id] = s.idx.Root()
	ns.depth[id] = 0
	ns.cLo[id] = int32(lo)
	ns.cHi[id] = int32(hi)
	ns.maxSc[id] = 0
	ns.band[id] = band
	return id, f, true
}

// expandResult is expand's outcome: the stored child node (viable or
// accepted) and its priority bound, or ok == false for an unviable child.
type expandResult struct {
	id       int32
	f        int
	accepted bool
	ok       bool
}

// expand fills in the dynamic-programming columns for the symbols on the
// edge leading to child (paper Algorithm 3) and stores the resulting search
// node, or reports it unviable.
//
// The sweep stops as soon as the node is accepted or discarded, so a long
// leaf edge costs only the columns actually swept, not its length.
//
// The column sweep is banded: pruning leaves each column with a contiguous
// live interval [lo, hi] of non-negInf cells (cells outside it are never
// revived by later columns except through the insertion chain immediately
// above hi), so only cells reachable from the previous column's band are
// computed.  The searcher's full switch widens the band to the full column,
// restoring the original exhaustive sweep (see kernel.go for the sweep).
//
//oasis:hotpath
func (s *searcher) expand(parentID int32, child NodeRef, label []byte) (expandResult, error) {
	m := len(s.query)
	gap := int32(s.opts.Scheme.Gap)
	minScore := int32(s.opts.MinScore)
	full := s.full
	ns := s.nodes

	// prev/cur are searcher-owned scratch buffers (reused across every
	// expansion); prev starts as a copy of the parent's live band so the
	// parent's vector stays intact for its other children.  The locals swap
	// roles with every column; every return path re-synchronises the
	// searcher fields so buffer ownership stays explicit.
	prev := s.prevBuf
	cur := s.curBuf
	plo, phi := int(ns.cLo[parentID]), int(ns.cHi[parentID])
	copy(prev[plo:phi+1], ns.band[parentID])
	maxScore := ns.maxSc[parentID]
	parentDepth := int(ns.depth[parentID])

	hColumn := negInf32
	columns := 0
	var cells int64
	terminator := false
	for _, sym := range label {
		// Cancellation poll (Options.Context): a query stuck in a long
		// hit-less DP stretch still observes ctx within cancelPollColumns
		// columns instead of only at the next hit callback.
		if s.ctx != nil {
			s.pollCountdown--
			if s.pollCountdown <= 0 {
				s.pollCountdown = cancelPollColumns
				if err := s.ctx.Err(); err != nil {
					s.recordColumns(columns, cells)
					s.prevBuf, s.curBuf = prev, cur
					return expandResult{}, err
				}
			}
		}
		if int(sym) >= s.profWidth {
			// Sequence terminator: alignments never extend across it; the
			// remaining label (if any) is beyond this sequence.
			terminator = true
			break
		}
		r := sweepColumn(prev, cur, s.prof, s.h32, s.profWidth, int(sym), plo, phi, m, gap, maxScore, minScore, full)
		cells += int64(r.cells)
		maxScore = r.maxScore
		columns++
		hColumn = r.colBest
		if maxScore >= hColumn {
			// Nothing below this node can beat the alignment already
			// found along this path.
			s.recordColumns(columns, cells)
			s.prevBuf, s.curBuf = prev, cur
			return s.closeOut(child, maxScore), nil
		}
		if hColumn < minScore {
			s.recordColumns(columns, cells)
			s.prevBuf, s.curBuf = prev, cur
			s.stats.NodesUnviable++
			return expandResult{}, nil
		}
		prev, cur = cur, prev
		plo, phi = int(r.curLo), int(r.curHi)
		if full {
			plo, phi = 0, m
		}
	}
	s.recordColumns(columns, cells)
	s.prevBuf, s.curBuf = prev, cur

	// The whole edge label has been consumed (or a terminator reached).
	if child.IsLeaf() || terminator {
		// No further expansion is possible below a leaf or past a terminator.
		return s.closeOut(child, maxScore), nil
	}
	if columns == 0 {
		// Degenerate empty edge (cannot happen in a well-formed index).
		s.stats.NodesUnviable++
		return expandResult{}, nil
	}
	return s.storeViable(child, int32(parentDepth+columns), plo, phi, prev, maxScore, int(hColumn)), nil
}

// closeOut stores a node whose subtree is finished — closed out by the prune
// rule, a leaf, or a terminator — as accepted (when its best score qualifies)
// or unviable.
func (s *searcher) closeOut(child NodeRef, maxScore int32) expandResult {
	if int(maxScore) >= s.opts.MinScore {
		s.stats.NodesAccepted++
		id := s.acc.alloc()
		s.acc.ref[id] = child
		s.acc.score[id] = maxScore
		return expandResult{id: id, f: int(maxScore), accepted: true, ok: true}
	}
	s.stats.NodesUnviable++
	return expandResult{}
}

// storeViable stores a still-viable node and returns its queue entry.
func (s *searcher) storeViable(child NodeRef, depth int32, plo, phi int, band []int32, maxScore int32, f int) expandResult {
	ns := s.nodes
	id := ns.alloc()
	ns.ref[id] = child
	ns.depth[id] = depth
	ns.maxSc[id] = maxScore
	ns.cLo[id] = int32(plo)
	ns.cHi[id] = int32(phi)
	b := s.allocBand(phi - plo + 1)
	copy(b, band[plo:phi+1])
	ns.band[id] = b
	return expandResult{id: id, f: f, ok: true}
}

func (s *searcher) recordColumns(columns int, cells int64) {
	s.stats.ColumnsExpanded += int64(columns)
	s.stats.CellsComputed += cells
}

// reportAccepted reports every not-yet-reported sequence that contains a
// leaf below the accepted node id.  It returns true when the search is
// finished (callback cancelled, MaxResults reached, or every sequence
// reported).
//
//oasis:hotpath
func (s *searcher) reportAccepted(id int32) (bool, error) {
	s.accID, s.accDone, s.accErr = id, false, nil
	if err := s.idx.LeafPositions(s.acc.ref[id], s.leafFn); err != nil {
		return false, err
	}
	return s.accDone, s.accErr
}

// visitLeaf is reportAccepted's LeafPositions callback (s.leafFn): it reports
// pos's sequence unless already reported, and stops the walk once it has set
// s.accDone or s.accErr.
//
//oasis:hotpath
func (s *searcher) visitLeaf(pos int64) bool {
	seqIdx, err := s.cat.Locate(pos)
	if err != nil {
		s.accErr = err
		return false
	}
	if s.reported[seqIdx] {
		return true
	}
	s.reported[seqIdx] = true
	s.sc.touched = append(s.sc.touched, seqIdx)
	s.nHits++
	s.stats.SequencesReported++
	hit := Hit{
		SeqIndex: seqIdx,
		SeqID:    s.cat.SequenceID(seqIdx),
		Score:    int(s.acc.score[s.accID]),
		Rank:     s.nHits,
	}
	if s.opts.KA != nil {
		hit.EValue = s.opts.KA.EValue(hit.Score, len(s.query), s.cat.TotalResidues())
	}
	if !s.report(hit) ||
		s.opts.MaxResults > 0 && s.nHits >= s.opts.MaxResults ||
		s.nHits >= s.cat.NumSequences() {
		s.accDone = true
		return false
	}
	return true
}

func (s *searcher) push(f int, accepted bool, id int32) {
	s.stats.NodesPushed++
	s.bq.push(f, accepted, id)
	if s.bq.size > s.stats.MaxQueueSize {
		s.stats.MaxQueueSize = s.bq.size
	}
}

// SortHits orders hits by decreasing score then by sequence index; used when
// comparing result sets from different algorithms.
func SortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].SeqIndex < hits[j].SeqIndex
	})
}
