package core

// Subtree sharding support: instead of building one suffix tree per database
// partition (which duplicates all near-root column work once per shard), a
// sharded engine can run the OASIS search over ONE shared index by splitting
// the search space itself — disjoint top-level subtrees go to different
// workers.  ExpandFrontier performs the near-root expansion once, producing a
// set of Seeds (subtree entry points with their DP columns precomputed), and
// SearchSeedsStream resumes the best-first search from a seed subset.  The
// near-root columns are therefore computed exactly once regardless of the
// shard count, and — absent early termination — the total work across all
// shards equals the single-searcher work cell for cell.

import "repro/internal/seq"

// SubtreeAssigner maps the one- or two-symbol prefix of a top-level subtree
// to the shard that owns it.  Prefixes are over encoded residue symbols; the
// second symbol may be seq.Terminator for a sequence that ends immediately
// after the first.  seq.PrefixPartition is the standard implementation.
type SubtreeAssigner interface {
	// NumShards returns the number of shards prefixes are assigned to.
	NumShards() int
	// Split reports whether subtrees starting with first are partitioned
	// among shards by their second symbol (true) or owned whole (false).
	Split(first byte) bool
	// Owner returns the shard owning the subtree prefix: (first) alone when
	// !Split(first) — second is ignored — and (first, second) otherwise.
	Owner(first, second byte) int
}

// Seed is one precomputed entry point into the search space: a suffix-tree
// subtree together with the live band of the DP column at its top node and
// the best score on the path to it, as produced by the shared near-root
// expansion.  A Seed owns its band copy and stays valid after the frontier
// searcher is released.
type Seed struct {
	ref      NodeRef
	depth    int
	band     []int32 // live cells C[cLo..cHi]; nil for accepted seeds
	cLo, cHi int
	maxScore int
	// f is the seed's priority bound: an upper bound on any score within the
	// subtree (viable) or the score it will report (accepted).
	f        int
	accepted bool
}

// Frontier is the result of the shared near-root expansion: the subtree
// seeds grouped by owning shard, the work the expansion cost (counted once,
// independent of shard count), and each shard's initial frontier bound.
type Frontier struct {
	// Seeds[s] holds the subtree entry points assigned to shard s; a shard
	// with no seeds has nothing to search.
	Seeds [][]Seed
	// Bounds[s] is the highest seed F of shard s (negInf when seedless): the
	// bound a score-ordered merger may assume before the shard's searcher
	// publishes its first own bound.
	Bounds []int
	// Stats counts the work of the shared expansion.
	Stats Stats
}

// ExpandFrontier builds the root search node and expands the near-root trunk
// of the index once, routing every surviving subtree to its owning shard per
// assign.  Trunk columns (the root's outgoing edges, plus one more level for
// prefixes the assigner splits by second symbol) are computed exactly once;
// unviable subtrees are discarded here and never reach a shard, exactly as
// the single-searcher would discard them.
//
// opts must equal the options later passed to SearchSeedsStream (MinScore,
// Scheme) or the seeds' pruning would be inconsistent.
// opts.Stats is ignored; the expansion work is returned in Frontier.Stats.
func ExpandFrontier(idx Index, query []byte, opts Options, assign SubtreeAssigner) (*Frontier, error) {
	nShards := assign.NumShards()
	var st Stats
	opts.Stats = &st
	opts.MaxResults = 0
	s, err := newSearcher(idx, query, opts)
	if err != nil {
		return nil, err
	}
	defer s.release()

	fr := &Frontier{
		Seeds:  make([][]Seed, nShards),
		Bounds: make([]int, nShards),
	}
	for i := range fr.Bounds {
		fr.Bounds[i] = negInf
	}
	rootID, _, ok := s.rootNode()
	if !ok {
		fr.Stats = st
		return fr, nil
	}

	nextFallback := 0 // round-robin target for seeds with no prefix owner
	addSeed := func(shard int, r expandResult) {
		if shard < 0 || shard >= nShards {
			shard = nextFallback % nShards
			nextFallback++
		}
		var seed Seed
		if r.accepted {
			id := r.id
			seed = Seed{
				ref:      s.acc.ref[id],
				maxScore: int(s.acc.score[id]),
				f:        r.f,
				accepted: true,
			}
			s.acc.release(id)
		} else {
			id := r.id
			ns := s.nodes
			seed = Seed{
				ref:      ns.ref[id],
				depth:    int(ns.depth[id]),
				cLo:      int(ns.cLo[id]),
				cHi:      int(ns.cHi[id]),
				maxScore: int(ns.maxSc[id]),
				f:        r.f,
			}
			seed.band = make([]int32, len(ns.band[id]))
			copy(seed.band, ns.band[id])
			s.releaseViable(id)
		}
		fr.Seeds[shard] = append(fr.Seeds[shard], seed)
		if seed.f > fr.Bounds[shard] {
			fr.Bounds[shard] = seed.f
		}
	}
	// The trunk is at most two levels deep: the root, plus the depth-1 nodes
	// whose prefix the assigner splits by second symbol.  splitFirst tags a
	// stacked node with its (single-symbol) path so children know their
	// prefix; -1 marks the root.
	type trunkNode struct {
		id    int32
		first int
	}
	stack := []trunkNode{{id: rootID, first: -1}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.NodesExpanded++
		err := s.idx.VisitChildren(s.nodes.ref[t.id], int(s.nodes.depth[t.id]), func(child NodeRef, label []byte) error {
			first, second := int(label[0]), -1
			if len(label) > 1 {
				second = int(label[1])
			}
			r, err := s.expand(t.id, child, label)
			if err != nil || !r.ok {
				return err
			}
			switch {
			case t.first >= 0:
				// Child of a split depth-1 node: prefix (t.first, first).
				addSeed(assign.Owner(byte(t.first), byte(first)), r)
			case first == int(seq.Terminator):
				// A whole-terminator subtree cannot be viable (expand stops
				// at the terminator with maxScore 0 < MinScore), so r being
				// ok here would mean a malformed index; route it
				// defensively rather than lose it.
				addSeed(-1, r)
			case !assign.Split(byte(first)):
				addSeed(assign.Owner(byte(first), 0), r)
			case second >= 0:
				// The edge itself carries the second symbol: every suffix in
				// this subtree shares the two-symbol prefix.
				addSeed(assign.Owner(byte(first), byte(second)), r)
			case r.accepted:
				// A single-symbol edge to an accepted node: nothing below it
				// is ever expanded, so ownership by second symbol is moot.
				addSeed(-1, r)
			default:
				stack = append(stack, trunkNode{id: r.id, first: first})
			}
			return nil
		})
		s.releaseViable(t.id)
		if err != nil {
			return nil, err
		}
	}
	fr.Stats = st
	return fr, nil
}

// pushSeed rebuilds a search node from a frontier seed (copying the band
// into searcher-owned storage) and pushes it onto the priority queue.
func (s *searcher) pushSeed(seed *Seed) {
	if seed.accepted {
		id := s.acc.alloc()
		s.acc.ref[id] = seed.ref
		s.acc.score[id] = int32(seed.maxScore)
		s.push(seed.f, true, id)
		return
	}
	ns := s.nodes
	id := ns.alloc()
	ns.ref[id] = seed.ref
	ns.depth[id] = int32(seed.depth)
	ns.cLo[id] = int32(seed.cLo)
	ns.cHi[id] = int32(seed.cHi)
	ns.maxSc[id] = int32(seed.maxScore)
	band := s.allocBand(len(seed.band))
	copy(band, seed.band)
	ns.band[id] = band
	s.push(seed.f, false, id)
}

// SearchSeedsStream runs the OASIS best-first search over the subtrees in
// seeds instead of from the index root, streaming hits to report in
// decreasing score order with the same frontier-bound hook as SearchStream.
// opts must match the options the seeds were expanded with.  Seeds may be
// reused across calls (each search copies the band into its own storage).
func SearchSeedsStream(idx Index, query []byte, opts Options, seeds []Seed, report func(Hit) bool, frontier func(bound int) bool) error {
	s, err := newSearcher(idx, query, opts)
	if err != nil {
		return err
	}
	defer s.release()
	s.frontier = frontier
	for i := range seeds {
		s.pushSeed(&seeds[i])
	}
	return s.run(report)
}
