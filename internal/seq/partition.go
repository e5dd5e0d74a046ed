package seq

import (
	"fmt"
	"sort"
)

// PartitionDatabase cuts db into at most nShards contiguous runs of
// sequences balanced by residue count: run k ends at the sequence boundary
// nearest k/nShards of the residues, so run k's sequences are the source's
// in order, starting where run k-1 ended.  A run's first global index is
// therefore the sum of the sequence counts before it — the one offset that
// places every piece of the corpus (base shards, delta layers, remote slices)
// in the global numbering.  Sequence residues are shared with the source, not
// copied.  The split is deterministic.
//
// Fewer than nShards runs are returned when the database has fewer sequences
// than requested; a run is never empty.
func PartitionDatabase(db *Database, nShards int) ([]*Database, error) {
	if db == nil {
		return nil, fmt.Errorf("seq: nil database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("seq: shard count must be >= 1, got %d", nShards)
	}
	n := db.NumSequences()
	if n == 0 {
		return nil, fmt.Errorf("seq: cannot partition an empty database")
	}
	nShards = min(nShards, n)
	// cum[i] is the residue count of sequences [0, i).
	cum := make([]int64, n+1)
	for i := range n {
		cum[i+1] = cum[i] + int64(db.Sequence(i).Len())
	}
	runs := make([]*Database, 0, nShards)
	lo := 0
	for k := 1; k <= nShards; k++ {
		hi := n
		if k < nShards {
			// Move the cut on while the next boundary is nearer the target,
			// leaving this run and each later one at least one sequence.
			target := cum[n] * int64(k) / int64(nShards)
			hi = lo + 1
			for hi < n-(nShards-k) && cum[hi+1]-target < target-cum[hi] {
				hi++
			}
		}
		run, err := NewDatabase(db.Alphabet(), db.Sequences()[lo:hi:hi])
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		lo = hi
	}
	return runs, nil
}

// PrefixPartition assigns every suffix of a database to exactly one shard by
// the suffix's one- or two-symbol prefix, so workers searching a shared
// suffix tree explore disjoint subtrees (the subtree rooted below prefix p
// holds exactly the suffixes starting with p).  Heavy single-symbol groups
// are split by their second symbol — including the terminator, for suffixes
// of length one — mirroring the disk index's Hunt-style prefix partitions
// (PrefixLen 1 or 2); prefixes never exceed two symbols, which keeps the
// shared near-root expansion shallow.
//
// PrefixPartition implements core.SubtreeAssigner.
type PrefixPartition struct {
	nShards int
	width   int // alphabet size; second-symbol buckets add one for the terminator
	// ownerL1[first] is the shard owning all suffixes starting with first,
	// or -1 when the group is split by second symbol.
	ownerL1 []int
	// ownerL2[first*(width+1)+bucket(second)] is the owning shard of a split
	// group's two-symbol prefix.
	ownerL2 []int
	// Load[s] counts the suffixes assigned to shard s (diagnostics, tests).
	Load []int64
	// NumGroups is the number of non-empty prefix groups assigned.
	NumGroups int
	// counts1[first] / counts2[first*(width+1)+bucket(second)] are the exact
	// per-prefix-group suffix counts the partition was balanced with; they
	// back PrefixCost.
	counts1 []int64
	counts2 []int64
}

// PrefixCost implements core.PrefixCoster: the exact number of indexed
// suffixes in a prefix group — every suffix starting with first when
// second < 0, or with the two-symbol prefix (first, second) otherwise
// (second may be the terminator).  Returns 0 (unknown) for a first symbol
// outside the alphabet, which no alignment can start with.
func (p *PrefixPartition) PrefixCost(first byte, second int) int64 {
	if int(first) >= p.width {
		return 0
	}
	if second < 0 {
		return p.counts1[first]
	}
	return p.counts2[int(first)*(p.width+1)+p.bucket(byte(second))]
}

// bucket folds a second symbol into its counter index (terminator last).
func (p *PrefixPartition) bucket(second byte) int {
	if int(second) >= p.width {
		return p.width
	}
	return int(second)
}

// NumShards implements core.SubtreeAssigner.
func (p *PrefixPartition) NumShards() int { return p.nShards }

// Split implements core.SubtreeAssigner: whether suffixes starting with
// first are partitioned among shards by their second symbol.
func (p *PrefixPartition) Split(first byte) bool {
	return int(first) < p.width && p.ownerL1[first] < 0
}

// Owner implements core.SubtreeAssigner: the shard owning the prefix (first)
// when !Split(first) — second is ignored — or (first, second) otherwise.
// Prefixes that cannot start an alignment (terminator first symbols) and
// prefixes absent from the database map to shard 0.
func (p *PrefixPartition) Owner(first, second byte) int {
	if int(first) >= p.width {
		return 0
	}
	if o := p.ownerL1[first]; o >= 0 {
		return o
	}
	return p.ownerL2[int(first)*(p.width+1)+p.bucket(second)]
}

// PartitionByPrefix builds a prefix partition of db's suffixes into nShards
// groups balanced by suffix count: single-symbol groups heavier than
// total/(2*nShards) are split into their two-symbol subgroups, and all
// groups are then assigned longest-processing-time-first to the lightest
// shard.  The partition is deterministic for a given database and shard
// count.
func PartitionByPrefix(db *Database, nShards int) (*PrefixPartition, error) {
	if db == nil {
		return nil, fmt.Errorf("seq: nil database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("seq: shard count must be >= 1, got %d", nShards)
	}
	if db.NumSequences() == 0 {
		return nil, fmt.Errorf("seq: cannot partition an empty database")
	}
	width := db.Alphabet().Size()
	p := &PrefixPartition{
		nShards: nShards,
		width:   width,
		ownerL1: make([]int, width),
		ownerL2: make([]int, width*(width+1)),
		Load:    make([]int64, nShards),
	}
	counts1 := make([]int64, width)
	counts2 := make([]int64, width*(width+1))
	concat := db.Concat()
	for pos := 0; pos < len(concat); pos++ {
		first := concat[pos]
		if int(first) >= width {
			continue // a terminator suffix can never start an alignment
		}
		counts1[first]++
		// first is a residue, so pos+1 exists (every sequence ends with a
		// terminator).
		counts2[int(first)*(width+1)+p.bucket(concat[pos+1])]++
	}

	// group is one assignable prefix: a whole first-symbol subtree or, for
	// split groups, a (first, second) subgroup.
	type group struct {
		first  int
		second int // -1 for a whole single-symbol group
		count  int64
	}
	var groups []group
	splitAbove := db.TotalResidues() / int64(2*nShards)
	for f := 0; f < width; f++ {
		switch {
		case counts1[f] == 0:
			p.ownerL1[f] = 0 // absent from the database; any owner works
		case nShards > 1 && counts1[f] > splitAbove:
			p.ownerL1[f] = -1
			for s := 0; s <= width; s++ {
				if c := counts2[f*(width+1)+s]; c > 0 {
					groups = append(groups, group{first: f, second: s, count: c})
				}
			}
		default:
			p.ownerL1[f] = 0 // reassigned below
			groups = append(groups, group{first: f, second: -1, count: counts1[f]})
		}
	}
	p.NumGroups = len(groups)

	// LPT: heaviest group to the lightest shard (ties: lowest shard; group
	// order ties broken by prefix for determinism).
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].count != groups[b].count {
			return groups[a].count > groups[b].count
		}
		if groups[a].first != groups[b].first {
			return groups[a].first < groups[b].first
		}
		return groups[a].second < groups[b].second
	})
	for _, g := range groups {
		best := 0
		for s := 1; s < nShards; s++ {
			if p.Load[s] < p.Load[best] {
				best = s
			}
		}
		if g.second < 0 {
			p.ownerL1[g.first] = best
		} else {
			p.ownerL2[g.first*(width+1)+g.second] = best
		}
		p.Load[best] += g.count
	}
	p.counts1 = counts1
	p.counts2 = counts2
	return p, nil
}
